"""Repo-level analysis tests: the committed tree is finding-free, and the
``python -m repro.analysis`` CLI honours the documented exit-code contract."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.analysis import run_analysis

REPO_ROOT = Path(__file__).parent.parent


def _cli(*argv: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *argv],
        cwd=cwd or REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )


def test_live_tree_is_finding_free() -> None:
    report = run_analysis()  # defaults to the installed repro package
    assert not report.findings, [f.format_human() for f in report.findings]
    assert report.ok
    assert report.files_analyzed > 50
    assert report.rules_run == 18
    # The interprocedural engine ran, resolved the acceptance bar of call
    # sites, and reported honest numbers for the rest.
    assert report.callgraph["call_sites"] > 1000
    assert report.callgraph["coverage"] >= 0.95


def test_cli_clean_tree_exits_zero_with_json() -> None:
    result = _cli("--format", "json")
    assert result.returncode == 0, result.stdout + result.stderr
    document = json.loads(result.stdout)
    assert document["ok"] is True
    assert document["counts"]["new"] == 0


def test_cli_lists_all_rules() -> None:
    result = _cli("--list-rules")
    assert result.returncode == 0
    listed = [line.split()[0] for line in result.stdout.splitlines() if line]
    assert len(listed) == 18
    for rule_id in (
        "DET001",
        "CC001",
        "CC005",
        "NH001",
        "SIM001",
        "SUP001",
        "IP001",
        "IP002",
        "IP003",
        "IP004",
    ):
        assert rule_id in listed


def test_cli_exits_one_on_new_finding(tmp_path: Path) -> None:
    bad = tmp_path / "bad_module.py"
    bad.write_text(
        "# lint-module: repro.core.fixture_cli\n"
        "import time\n"
        "\n"
        "def stamp() -> float:\n"
        "    return time.time()\n"
    )
    result = _cli(
        str(bad),
        "--format",
        "json",
        "--baseline",
        str(tmp_path / "baseline.json"),
    )
    assert result.returncode == 1, result.stdout + result.stderr
    document = json.loads(result.stdout)
    assert document["ok"] is False
    assert [f["rule"] for f in document["findings"]] == ["DET001"]


def test_cli_update_baseline_then_clean(tmp_path: Path) -> None:
    bad = tmp_path / "bad_module.py"
    bad.write_text(
        "# lint-module: repro.core.fixture_cli\n"
        "import time\n"
        "\n"
        "def stamp() -> float:\n"
        "    return time.time()\n"
    )
    baseline = tmp_path / "baseline.json"
    first = _cli(str(bad), "--baseline", str(baseline), "--update-baseline")
    assert first.returncode == 0, first.stdout + first.stderr
    assert json.loads(baseline.read_text())["findings"]
    second = _cli(str(bad), "--baseline", str(baseline))
    assert second.returncode == 0, second.stdout + second.stderr


def test_cli_bench_out_records_budget(tmp_path: Path) -> None:
    bench = tmp_path / "bench.json"
    result = _cli("--bench-out", str(bench))
    assert result.returncode == 0
    record = json.loads(bench.read_text())
    assert record["schema"] == 2
    assert record["files_analyzed"] > 50
    assert record["budget_seconds"] == 10.0
    assert record["within_budget"] is True
    assert record["callgraph"]["coverage"] >= 0.95
    assert len(record["rule_seconds"]) == 18  # a timing for every rule
