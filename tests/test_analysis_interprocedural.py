"""Acceptance tests for the interprocedural pass (IP rules).

The load-bearing one is the seeded fault: inject an in-place mutation of
a ``trusted=True`` shared plan array into a copy of the real admission
module and require IP002 to catch it — paired with a runtime proof that
the ledger's version/digest machinery *cannot* see that corruption, which
is exactly why the static rule exists.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import run_analysis
from repro.analysis.runner import _dependents_closure
from repro.core.plan import Ledger
from repro.errors import AnalysisError
from repro.perf.coherence import coherent, export_contracts, parse_dependency

SRC = Path(__file__).parent.parent / "src" / "repro"

_DET_BAIT = (
    "# lint-module: repro.core.fixture_inc\n"
    "import time\n"
    "\n"
    "def stamp() -> float:\n"
    "    return time.time()\n"
)


def _admission_copies(tmp_path: Path, *, inject: bool) -> list[Path]:
    """Copies of the real admission + plan modules, optionally faulted."""
    admission = (SRC / "core" / "admission.py").read_text()
    if inject:
        needle = "            ledger.set_plan(info.job_id, plan, trusted=True)\n"
        assert admission.count(needle) == 1
        admission = admission.replace(
            needle, needle + "            plan[0] = plan[0] + 1\n"
        )
    paths = []
    for name, text in (
        ("admission_copy.py", "# lint-module: repro.core.admission\n" + admission),
        (
            "plan_copy.py",
            "# lint-module: repro.core.plan\n"
            + (SRC / "core" / "plan.py").read_text(),
        ),
    ):
        path = tmp_path / name
        path.write_text(text)
        paths.append(path)
    return paths


def test_ip002_catches_injected_mutation_digest_checks_miss(
    tmp_path: Path,
) -> None:
    """Seeded fault: a write to a trusted shared plan right after adoption."""
    report = run_analysis(
        _admission_copies(tmp_path, inject=True),
        baseline_path=tmp_path / "baseline.json",
    )
    ip002 = [f for f in report.findings if f.rule_id == "IP002"]
    assert ip002, [f.format_human() for f in report.findings]
    assert any("alias" in f.message for f in ip002)
    assert not report.ok


def test_unfaulted_admission_copies_are_clean(tmp_path: Path) -> None:
    report = run_analysis(
        _admission_copies(tmp_path, inject=False),
        baseline_path=tmp_path / "baseline.json",
    )
    assert not report.findings, [f.format_human() for f in report.findings]


def test_pre_freeze_view_corruption_is_invisible_to_ledger_version() -> None:
    """Why IP002 exists: the runtime defences cannot see this write.

    ``set_plan(..., trusted=True)`` freezes the adopted array in place,
    so a *direct* later write raises.  But a view taken before the share
    keeps its own writeable flag — writing through it corrupts the
    adopted buffer while ``ledger.version`` (the staleness signal every
    digest-equivalence test keys on) never ticks.
    """
    ledger = Ledger(capacity=4, horizon=6)
    plan = np.ones(6, dtype=np.int64)
    view = plan[:2]  # alias created while the buffer was still writable
    ledger.set_plan("job-a", plan, trusted=True)
    version = ledger.version

    with pytest.raises((ValueError, RuntimeError)):
        plan[0] = 7  # the freeze stops the direct write...

    view[0] = 7  # ...but not the pre-freeze alias
    assert int(ledger._plans["job-a"][0]) == 7  # adopted state corrupted
    assert ledger.version == version  # and no staleness signal fired


def test_changed_mode_limits_findings_to_affected_modules(
    tmp_path: Path,
) -> None:
    bad = tmp_path / "bad_module.py"
    bad.write_text(_DET_BAIT)
    full = run_analysis([bad], baseline_path=tmp_path / "baseline.json")
    assert [f.rule_id for f in full.findings] == ["DET001"]
    assert full.changed_scope is None
    # The tmp module is not in the git diff against HEAD, so incremental
    # mode reports nothing for it — while still having analysed it.
    incremental = run_analysis(
        [bad],
        baseline_path=tmp_path / "baseline.json",
        changed_ref="HEAD",
    )
    assert incremental.changed_scope == []
    assert not incremental.findings
    assert incremental.files_analyzed == 1


def test_changed_mode_rejects_update_baseline(tmp_path: Path) -> None:
    bad = tmp_path / "bad_module.py"
    bad.write_text(_DET_BAIT)
    with pytest.raises(AnalysisError):
        run_analysis(
            [bad],
            baseline_path=tmp_path / "baseline.json",
            update_baseline=True,
            changed_ref="HEAD",
        )


def test_dependents_closure_follows_reverse_imports() -> None:
    deps = {
        "repro.a": set(),
        "repro.b": {"repro.a"},
        "repro.c": {"repro.b"},
        "repro.d": {"repro.a.sub"},
        "repro.e": set(),
    }
    assert _dependents_closure({"repro.a"}, deps) == {
        "repro.a",
        "repro.b",
        "repro.c",
        "repro.d",  # imports a submodule of the changed module
    }


def test_baseline_entry_goes_stale_when_rule_implementation_changes(
    tmp_path: Path,
) -> None:
    bad = tmp_path / "bad_module.py"
    bad.write_text(_DET_BAIT)
    baseline = tmp_path / "baseline.json"
    first = run_analysis([bad], baseline_path=baseline, update_baseline=True)
    assert not first.findings and first.baselined

    # Unchanged rule: the accepted finding stays accepted.
    second = run_analysis([bad], baseline_path=baseline)
    assert not second.findings and second.baselined

    document = json.loads(baseline.read_text())
    ((fingerprint, entry),) = document["findings"].items()
    assert entry["rule_impl"], "v2 baselines stamp the rule fingerprint"

    # Simulate an edited rule: the stamped fingerprint no longer matches.
    entry["rule_impl"] = "0" * 12
    baseline.write_text(json.dumps(document))
    third = run_analysis([bad], baseline_path=baseline)
    assert [f.rule_id for f in third.findings] == ["DET001"]

    # v1-format entries (no fingerprint at all) are likewise stale.
    del entry["rule_impl"]
    baseline.write_text(json.dumps(document))
    fourth = run_analysis([bad], baseline_path=baseline)
    assert [f.rule_id for f in fourth.findings] == ["DET001"]


def test_parse_dependency_classifies_kinds_and_verifiers() -> None:
    assert parse_dependency("frozen") == "frozen"
    assert parse_dependency("ledger_version") == "hook"


def test_export_contracts_reports_dependency_kinds() -> None:
    @coherent(_tables="frozen")
    class TableHolder:
        pass

    contracts = export_contracts((Ledger, TableHolder))
    ledger = contracts["classes"]["Ledger"]
    assert ledger["coherent_fields"]["_plans"]["kind"] == "hook"
    holder = contracts["classes"][TableHolder.__qualname__]
    assert holder["coherent_fields"]["_tables"] == {
        "dependency": "frozen",
        "kind": "frozen",
    }
    assert "ledger_version" in contracts["invalidation_registry"]
