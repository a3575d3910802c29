"""Smoke tests for the perf harness (python -m repro.perf)."""

import json

import pytest

from repro.perf import bench, delta


@pytest.fixture
def tiny_bench(monkeypatch):
    """Shrink the benchmark trace so the smoke run stays fast."""
    monkeypatch.setattr(bench, "QUICK_JOBS", 30)
    monkeypatch.setitem(bench.SCALES["quick"], "n_jobs", 30)
    return bench


def test_main_writes_report(tmp_path, tiny_bench, capsys):
    out = tmp_path / "BENCH_core.json"
    code = tiny_bench.main(["--quick", "--seed", "5", "-o", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 2
    assert report["quick"] is True
    assert report["scale"] == "quick"
    assert report["seed"] == 5

    e2e = report["end_to_end"]
    for key in ("n_jobs", "cluster_gpus", "cached", "uncached", "speedup"):
        assert key in e2e
    assert e2e["decisions_match"] is True
    for side in ("cached", "uncached"):
        metrics = e2e[side]
        assert metrics["wall_s"] > 0
        assert metrics["events"] > 0
        assert metrics["events_per_sec"] > 0
        assert "p50_ms" in metrics and "p95_ms" in metrics
    # One counter registry: no renamed copies beside ``counters``.
    assert "cache" not in e2e["cached"] and "incremental" not in e2e["cached"]

    admission = report["admission"]
    assert admission["candidates"] > 0
    assert admission["ops_per_sec"] > 0

    allocation = report["allocation"]
    assert allocation["rounds"] > 0
    assert allocation["allocs_per_sec"] > 0

    buddy = report["buddy"]
    assert buddy["ops"] > 0
    assert buddy["ops_per_sec"] > 0
    assert buddy["calibration_s"] > 0

    counters = e2e["cached"]["counters"]
    assert counters["alg2_applies"] > 0
    assert counters["buddy_allocs"] > 0
    assert counters["tables_hits"] > 0

    printed = capsys.readouterr().out
    assert "end-to-end" in printed
    assert "buddy" in printed
    fills = counters.get("alg1_fast_accepts", 0) + counters.get("alg1_fallbacks", 0)
    assert f"alg1 {counters.get('alg1_repeats', 0)} repeats / {fills} fills\n" in printed


@pytest.mark.parametrize("suite", ["core", "figures"])
def test_missing_output_dir_fails_before_running(tmp_path, monkeypatch, suite):
    def must_not_run(*args, **kwargs):
        raise AssertionError("benchmark ran despite an unwritable -o path")

    monkeypatch.setattr(bench, "run_benchmarks", must_not_run)
    monkeypatch.setattr("repro.perf.figures.run_figure_suite", must_not_run)
    missing = tmp_path / "missing" / "x.json"
    with pytest.raises(SystemExit) as excinfo:
        bench.main(["--quick", "--suite", suite, "-o", str(missing)])
    assert excinfo.value.code == 2
    assert not missing.parent.exists()


def test_bench_buddy_is_deterministic():
    first = bench.bench_buddy(3, ops=2000)
    second = bench.bench_buddy(3, ops=2000)
    assert first["ops"] == second["ops"] > 0
    assert first["capacity"] == bench.BUDDY_BENCH_GPUS


def test_decision_digest_orders_outcomes(tiny_bench):
    metrics, result = bench._run_sim(12, seed=1)
    digest = bench._decision_digest(result)
    assert digest == sorted(digest)
    assert len(digest) == 12


# ------------------------------------------------------- perf-delta gate
def _report(phases, wall=10.0, buddy_wall=None, calibration=0.5):
    report = {
        "scale": "quick",
        "seed": 0,
        "end_to_end": {
            "cached": {
                "wall_s": wall,
                "events_per_sec": 100.0,
                "phases": phases,
            }
        },
    }
    if buddy_wall is not None:
        report["buddy"] = {
            "ops": 1000,
            "wall_s": buddy_wall,
            "ops_per_sec": 1.0,
            "calibration_s": calibration,
        }
    return report


class TestDeltaGate:
    def test_roundtrip_report_passes_against_itself(self):
        report = _report({"alg1_s": 3.0, "alg2_s": 5.0, "other_s": 2.0})
        baseline = delta.extract_baseline(report)
        assert delta.check_phases(report, baseline) == []

    def test_uniform_slowdown_passes(self):
        """A slow runner scales every phase equally — shares unchanged."""
        baseline = delta.extract_baseline(
            _report({"alg1_s": 3.0, "alg2_s": 5.0}, wall=10.0)
        )
        slower = _report({"alg1_s": 9.0, "alg2_s": 15.0}, wall=30.0)
        assert delta.check_phases(slower, baseline) == []

    def test_single_phase_regression_fails(self):
        baseline = delta.extract_baseline(
            _report({"alg1_s": 3.0, "alg2_s": 5.0}, wall=10.0)
        )
        regressed = _report({"alg1_s": 3.0, "alg2_s": 9.0}, wall=14.0)
        failures = delta.check_phases(regressed, baseline)
        assert len(failures) == 1 and "alg2_s" in failures[0]

    def test_buddy_pseudo_fraction_gates(self):
        baseline = delta.extract_baseline(
            _report({"alg1_s": 3.0}, wall=10.0, buddy_wall=1.0)
        )
        assert baseline["fractions"]["buddy_bench"] == pytest.approx(2.0)
        same = _report({"alg1_s": 3.0}, wall=10.0, buddy_wall=1.0)
        assert delta.check_phases(same, baseline) == []
        regressed = _report({"alg1_s": 3.0}, wall=10.0, buddy_wall=2.0)
        failures = delta.check_phases(regressed, baseline)
        assert len(failures) == 1 and "buddy_bench" in failures[0]

    def test_buddy_gate_ignores_end_to_end_wins(self):
        """The buddy wall is judged against its calibration loop, not the
        end-to-end wall: a halved end-to-end run passes, a doubled buddy
        wall fails."""
        baseline = delta.extract_baseline(
            _report({"alg1_s": 3.0}, wall=10.0, buddy_wall=1.0)
        )
        faster = _report({"alg1_s": 1.5}, wall=5.0, buddy_wall=1.0)
        assert delta.check_phases(faster, baseline) == []
        slower_buddy = _report({"alg1_s": 3.0}, wall=10.0, buddy_wall=2.0)
        failures = delta.check_phases(slower_buddy, baseline)
        assert len(failures) == 1 and "buddy_bench" in failures[0]

    def test_buddy_key_optional_on_both_sides(self):
        """Old baselines never gate it; a baseline with it demands it."""
        old_baseline = delta.extract_baseline(_report({"alg1_s": 3.0}))
        with_buddy = _report({"alg1_s": 3.0}, buddy_wall=1.0)
        assert delta.check_phases(with_buddy, old_baseline) == []
        new_baseline = delta.extract_baseline(with_buddy)
        failures = delta.check_phases(_report({"alg1_s": 3.0}), new_baseline)
        assert any("buddy_bench" in line for line in failures)

    def test_missing_phase_fails(self):
        baseline = delta.extract_baseline(
            _report({"alg1_s": 3.0, "alg2_s": 5.0})
        )
        failures = delta.check_phases(_report({"alg1_s": 3.0}), baseline)
        assert any("missing" in line for line in failures)

    def test_cli_write_then_gate(self, tmp_path):
        report_path = tmp_path / "report.json"
        baseline_path = tmp_path / "baseline.json"
        report_path.write_text(
            json.dumps(_report({"alg1_s": 3.0, "alg2_s": 5.0}))
        )
        assert (
            delta.main(
                [
                    "--report",
                    str(report_path),
                    "--baseline",
                    str(baseline_path),
                    "--write-baseline",
                ]
            )
            == 0
        )
        assert (
            delta.main(
                ["--report", str(report_path), "--baseline", str(baseline_path)]
            )
            == 0
        )
        regressed = tmp_path / "regressed.json"
        regressed.write_text(
            json.dumps(_report({"alg1_s": 3.0, "alg2_s": 9.0}, wall=14.0))
        )
        assert (
            delta.main(
                ["--report", str(regressed), "--baseline", str(baseline_path)]
            )
            == 1
        )
