"""Fixture-driven tests for every static-analysis rule.

Each rule in :mod:`repro.analysis` has a positive fixture (exactly one
violation, its line marked ``# <- finding``) and a negative fixture (the
sanctioned spelling of the same code) under ``tests/analysis_fixtures/``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import all_rules, run_analysis

FIXTURE_DIR = Path(__file__).parent / "analysis_fixtures"

#: Every rule the analyser ships, lowercased to match fixture file names.
RULE_IDS = [
    "det001",
    "det002",
    "cc001",
    "cc002",
    "cc003",
    "cc004",
    "cc005",
    "nh001",
    "nh002",
    "sim001",
    "err001",
    "err002",
    "sup001",
    "par001",
    "ip001",
    "ip002",
    "ip003",
    "ip004",
]

#: Line marker used by positive fixtures.  SUP001's finding *is* a
#: suppression comment, so appending a marker there would change what the
#: suppression parser sees; its expected line is the disable comment itself.
_MARKERS = {"sup001": "lint: disable"}
_DEFAULT_MARKER = "# <- finding"


def _expected_line(path: Path, rule: str) -> int:
    marker = _MARKERS.get(rule, _DEFAULT_MARKER)
    for index, text in enumerate(path.read_text().splitlines(), start=1):
        if marker in text:
            return index
    raise AssertionError(f"{path.name} has no marker {marker!r}")


def _run(path: Path, tmp_path: Path):
    # A fresh baseline path keeps the run hermetic (nothing baselined).
    # Interprocedural fixtures may span modules: a ``<rule>_dep*.py``
    # companion (e.g. the in-scope sink the positive fixture calls into)
    # is analysed alongside the fixture itself.
    base = path.stem.rsplit("_", 1)[0]
    companions = sorted(FIXTURE_DIR.glob(f"{base}_dep*.py"))
    return run_analysis(
        [path, *companions], baseline_path=tmp_path / "baseline.json"
    )


def test_rule_catalog_matches_fixture_set() -> None:
    assert sorted(rule.rule_id for rule in all_rules()) == sorted(
        rule_id.upper() for rule_id in RULE_IDS
    )


@pytest.mark.parametrize("rule", RULE_IDS)
def test_positive_fixture_yields_exactly_one_finding(
    rule: str, tmp_path: Path
) -> None:
    fixture = FIXTURE_DIR / f"{rule}_pos.py"
    report = _run(fixture, tmp_path)
    assert len(report.findings) == 1, [f.format_human() for f in report.findings]
    finding = report.findings[0]
    assert finding.rule_id == rule.upper()
    assert finding.line == _expected_line(fixture, rule)
    assert finding.path.endswith(f"{rule}_pos.py")
    assert finding.snippet  # the span resolves to real source text
    assert not report.baselined and not report.suppressed


@pytest.mark.parametrize("rule", RULE_IDS)
def test_negative_fixture_is_clean(rule: str, tmp_path: Path) -> None:
    fixture = FIXTURE_DIR / f"{rule}_neg.py"
    report = _run(fixture, tmp_path)
    assert not report.findings, [f.format_human() for f in report.findings]


def test_cc004_is_a_warning_and_does_not_gate(tmp_path: Path) -> None:
    report = _run(FIXTURE_DIR / "cc004_pos.py", tmp_path)
    [finding] = report.findings
    assert finding.severity.value == "warning"
    assert report.ok  # warnings are reported but do not fail the run


def test_justified_suppression_is_recorded_not_silent(tmp_path: Path) -> None:
    report = _run(FIXTURE_DIR / "sup001_neg.py", tmp_path)
    assert not report.findings
    assert [f.rule_id for f in report.suppressed] == ["NH001"]


def test_removing_invalidates_hook_fails_cache_coherence(tmp_path: Path) -> None:
    """Acceptance check: drop the invalidation call from a real mutator.

    ``OnlineThroughputModel.observe`` mutates the coherent ``_corrections``
    field and discharges its obligation by calling
    ``invalidate_planning_tables(...)``.  Deleting that call must trip
    CC001 when the analyser sees the mutated copy next to the provider
    declarations in ``repro.perf.tables``.
    """
    src = Path(__file__).parent.parent / "src" / "repro"
    online = (src / "profiles" / "online.py").read_text()
    mutated = "\n".join(
        line
        for line in online.splitlines()
        if not line.strip().startswith("invalidate_planning_tables(")
    )
    assert mutated != online  # the hook call was present and got removed
    broken = tmp_path / "online_broken.py"
    broken.write_text("# lint-module: repro.profiles.online\n" + mutated)
    tables = tmp_path / "tables_copy.py"
    tables.write_text(
        "# lint-module: repro.perf.tables\n" + (src / "perf" / "tables.py").read_text()
    )
    report = run_analysis(
        [broken, tables], baseline_path=tmp_path / "baseline.json"
    )
    cc001 = [f for f in report.findings if f.rule_id == "CC001"]
    assert cc001, [f.format_human() for f in report.findings]
    assert any("observe" in f.message for f in cc001)
    assert not report.ok
