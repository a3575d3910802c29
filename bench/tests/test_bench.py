"""Tests of the benchmark itself, on the 100-job smoke variant of each workload.

Run from the repository root:

    PYTHONPATH=src:. python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time

import pytest

from bench import run, spans, workloads
from bench.__main__ import compare, judge

BENCHMARK = run.benchmark()
NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def run_script(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        env=run.single_thread_env(),
        timeout=300,
    )


def test_benchmark_json_names_the_defined_workloads():
    assert NAMES == list(workloads.WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "bench/run.py"]
    assert any(m["name"] == "setup_s" for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_printed_with_its_unit(name, trace):
    done = run_script("--workload", name, "--seed", "0", "--seconds", "0",
                      "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert math.isfinite(printed["value"])
    detail = json.loads(lines[-2].removeprefix("detail "))
    # The smoke quality set is one trace, replayed twice when traced.
    assert detail["golden_checks"] == int(trace) + 1 and not detail["notes"], detail


def test_span_self_times_reconcile_with_wall_time():
    w = workloads.workload("adaptive", smoke=True)
    tracer = spans.Tracer()
    wall, results = run.replay(w, 0, 0, tracer=tracer)
    own, roots = tracer.self_times()
    assert sum(own.values()) == pytest.approx(roots, rel=1e-9)
    assert 0.0 < roots <= wall
    assert all(seconds >= 0.0 for seconds in own.values())
    events = sum(result.events_processed for result in results)
    layers = spans.layer_metrics([tracer], wall, events)
    shares = [value for name, value in layers.items() if name.endswith("self_share")]
    assert sum(shares) == pytest.approx(1.0, abs=0.01)
    assert min(shares) >= 0.0
    for layer in ("views", "admission.plan_shares", "allocation", "placement",
                  "profiling.observe"):
        assert layers[f"{layer}.self_share"] > 0.0, layer


def test_speed_probes_stay_outside_the_timings(monkeypatch):
    pause = 0.05

    def slow_probe(values):
        start = time.perf_counter()
        time.sleep(pause)
        return time.perf_counter() - start

    monkeypatch.setattr(run, "speed_probe", slow_probe)
    clock = run.DecisionClock()
    start = time.perf_counter()
    wall, _ = run.replay(workloads.workload("philly", smoke=True), 0, 0, clock=clock)
    elapsed = time.perf_counter() - start
    assert clock.speed.probes >= 2
    assert wall + clock.speed.seconds <= elapsed
    scale = clock.scaled_wall / wall
    assert scale == pytest.approx(run.PROBE_REFERENCE_S / pause, rel=0.5)
    assert max(clock.submit + clock.realloc) / scale < pause


def test_tampered_golden_is_detected():
    golden = json.loads(run.GOLDEN.read_text())
    digest = golden["smoke"]["philly"]["quality"][0]
    golden["smoke"]["philly"]["quality"][0] = digest[::-1]
    result, detail = run.measure("philly", 0, 0.0, False, smoke=True, golden=golden)
    assert result["correct"] is False and result["failed"] == 1
    assert detail["notes"] == [
        f"quality trace 0: decision digest {digest[:12]} differs from golden {digest[::-1][:12]}"
    ]


def test_wrapped_class_methods_are_restored():
    from repro.cluster.placement import PlacementManager
    from repro.core import scheduler
    from repro.core.admission import AdmissionController
    from repro.profiles.online import OnlineThroughputModel

    owners = [
        (AdmissionController, "try_admit"),
        (AdmissionController, "plan_shares"),
        (scheduler, "allocate_leftover"),
        (OnlineThroughputModel, "observe"),
        *((PlacementManager, op) for op in spans.PLACEMENT_OPS),
    ]
    before = [vars(owner)[attr] for owner, attr in owners]
    run.replay(workloads.workload("adaptive", smoke=True), 0, 0, tracer=spans.Tracer())
    with pytest.raises(RuntimeError):
        with spans.instrumented(spans.Tracer()):
            raise RuntimeError("replay failed")
    assert [vars(owner)[attr] for owner, attr in owners] == before


def test_seed_changes_the_generated_inputs():
    w = workloads.workload("philly", smoke=True)

    def specs(seed, index):
        trace, rng = workloads.make_trace(w, seed, index)
        return workloads.make_inputs(w, trace, rng).specs

    assert specs(0, 0) == specs(0, 0)
    assert specs(0, 0) != specs(1, 0)
    assert specs(0, 0) != specs(0, 1)
    assert specs(None, 0) == specs(None, 0)
    assert specs(None, 0) not in (specs(0, 0), specs(None, 1))


def test_every_seed_replays_the_same_quality_set_first():
    w = workloads.workload("philly")
    for seed in (0, 7):
        replays = run.Run(w, seed, {})
        assert [replays.source(p) for p in range(w.quality_traces)] == [
            (None, k) for k in range(w.quality_traces)
        ]
        assert replays.source(w.quality_traces + 1) == (seed, 1)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = run_script("--workload", "philly", "--seed", "0", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


STEADY = [10.0, 10.1, 9.9] * 4


@pytest.mark.parametrize(
    "base, head, better, verdict",
    [
        (STEADY, [x - 2.0 for x in STEADY], "lower", "improved"),
        (STEADY[:3], [8.0, 8.1, 7.9], "lower", "within bound"),  # too few pairs
        (STEADY, [x + 3.0 for x in STEADY], "lower", "worse"),
        (STEADY, [10.05, 9.95, 10.0] * 4, "lower", "within bound"),
        ([10.0, 5.0, 15.0], [11.0, 6.0, 16.0], "lower", "unresolved"),
        ([10.0, 5.0, 15.0], [20.0, 16.0, 30.0], "lower", "worse"),  # every run worse
        ([10.0, 5.0, 15.0], [4.0, 2.0, 4.5], "lower", "within bound"),  # every run better
        (STEADY, [x + 2.0 for x in STEADY], "higher", "improved"),
    ],
)
def test_compare_verdicts(base, head, better, verdict):
    assert judge(base, head, better, 0.1)[0] == verdict


def saved(tmp_path, name: str, runs: dict[str, list[dict]]) -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"sets": [runs]}))
    return str(path)


def result(jobs_per_s: float, correct: bool = True) -> dict:
    metrics = {"jobs_per_s": {"value": jobs_per_s, "unit": "jobs/s"}}
    return {"result": {"correct": correct, "attempted": 1, "failed": int(not correct),
                       "metrics": metrics}}


@pytest.mark.parametrize(
    "head, status, verdict",
    [
        ({"philly": [result(100.0), result(101.0)]}, 0, "within bound"),
        ({"philly": [result(100.0), result(200.0, correct=False)]}, 1, "worse"),
        ({"philly": [{"error": "timeout"}, {"error": "exit code 1"}]}, 1, "missing"),
        ({}, 1, "missing"),
    ],
)
def test_compare_counts_failed_and_missing_runs(tmp_path, capsys, head, status, verdict):
    base = saved(tmp_path, "base", {"philly": [result(100.0), result(101.0)]})
    assert compare(base, saved(tmp_path, "head", head)) == status
    errors = [line for line in capsys.readouterr().out.splitlines() if " errors " in line]
    assert len(errors) == 1 and errors[0].endswith(verdict), errors
