"""The scheduling-hot-loop benchmark harness (``python -m repro.perf``).

Times the three layers the fast-path work targets — admission control,
allocation, and the end-to-end discrete-event simulation — and writes the
numbers to ``BENCH_core.json`` so every PR leaves a recorded perf
trajectory.  The end-to-end benchmark runs the identical workload twice,
once with the planning caches on and once through the
:func:`repro.perf.tables.planning_cache_disabled` reference, reporting
the speedup *and* verifying that both runs made byte-identical scheduling
decisions (same admissions, same per-job outcomes).

Four scales are available (``--scale``): ``quick`` (200 jobs / 1024 GPUs,
the CI smoke), ``full`` (2000 / 1024, the recorded trajectory), ``mid``
(5000 / 4096) and ``xl`` (20000 / 16384).  The two large scales model an
Aryl/VirtualFlow-style large-model cluster (heavier requested-size mix, so
the active set stays in the hundreds) and verify the ladder-table solvers
against the paper-literal loops run on the cached tables
(``batched_solver_disabled``) instead of the cache-disabled reference,
which is intractable at that size; the ``reference_mode`` field records
which yardstick produced ``decisions_match``.  The ``counters`` block of
each run is the :mod:`repro.perf.probe` operation-counter registry.

Usage::

    python -m repro.perf               # full benchmark (2000-job trace)
    python -m repro.perf --quick       # CI smoke (200-job trace)
    python -m repro.perf --scale xl    # 16k-GPU / 20k-job scale probe
    python -m repro.perf -o out.json
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import heapq
import json
import os
import pstats
import time
from typing import Any

import numpy as np

from repro.cluster.topology import ClusterSpec
from repro.core.scheduler import ElasticFlowPolicy
from repro.perf import probe
from repro.perf.tables import (
    batched_solver_disabled,
    planning_cache_disabled,
    reset_cache,
)
from repro.profiles.throughput import ThroughputModel
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.sim.metrics import SimulationResult
from repro.traces.synthetic import ClusterTraceConfig, generate_trace
from repro.traces.workload import build_jobs

__all__ = ["run_benchmarks", "main"]

#: The Philly-like end-to-end configuration (ISSUE: 2000-job benchmark trace).
FULL_JOBS = 2000
QUICK_JOBS = 200
BENCH_CLUSTER_GPUS = 1024
BENCH_SLOT_SECONDS = 600.0
DEFAULT_OUTPUT = "BENCH_core.json"

#: Requested-size mix for the large scales: a large-model cluster serves
#: far fewer, far wider jobs per GPU than the Philly mix (mean request
#: ~24 GPUs vs ~4), keeping the simultaneous active set in the hundreds
#: even at 16k GPUs.
HEAVY_GPU_WEIGHTS = {4: 0.20, 8: 0.25, 16: 0.25, 32: 0.15, 64: 0.10, 128: 0.05}

#: Benchmark scales: trace size, cluster size, requested-size mix, and the
#: yardstick the decision digest is checked against.
SCALES: dict[str, dict[str, Any]] = {
    "quick": {
        "n_jobs": QUICK_JOBS,
        "cluster_gpus": BENCH_CLUSTER_GPUS,
        "gpu_weights": None,
        "reference_mode": "cache-disabled",
    },
    "full": {
        "n_jobs": FULL_JOBS,
        "cluster_gpus": BENCH_CLUSTER_GPUS,
        "gpu_weights": None,
        "reference_mode": "cache-disabled",
    },
    "mid": {
        "n_jobs": 5000,
        "cluster_gpus": 4096,
        "gpu_weights": HEAVY_GPU_WEIGHTS,
        "reference_mode": "sequential-solver",
    },
    "xl": {
        "n_jobs": 20000,
        "cluster_gpus": 16384,
        "gpu_weights": HEAVY_GPU_WEIGHTS,
        "reference_mode": "sequential-solver",
    },
}


class _TimedSimulator(Simulator):
    """A simulator that records the wall-clock latency of every event.

    Each dispatch is additionally bracketed as one phase-probe event, so
    the per-phase attribution (views / alg1 / alg2 / engine) aligns
    one-to-one with ``event_latencies`` while a recorder is installed.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.event_latencies: list[float] = []

    def _dispatch(self, event: Event) -> None:
        probe.begin_event()
        start = time.perf_counter()
        super()._dispatch(event)
        self.event_latencies.append(time.perf_counter() - start)
        probe.end_event()


def _phase_summary(
    events: list[dict[str, float]], latencies: list[float]
) -> dict[str, float]:
    """Aggregate per-event phase buckets into total seconds per phase.

    ``other_s`` is the residual — event time not attributed to any named
    phase (event handling outside ``allocate``/``_reallocate``, probe
    overhead, dispatch plumbing) — so the named phases plus the residual
    always reconcile with the summed event latencies.
    """
    totals = dict.fromkeys(probe.PHASES, 0.0)
    for event_phases in events:
        for phase, seconds in event_phases.items():
            totals[phase] = totals.get(phase, 0.0) + seconds
    attributed = sum(totals.values())
    total = sum(latencies)
    summary = {f"{phase}_s": round(totals[phase], 4) for phase in probe.PHASES}
    summary["other_s"] = round(max(0.0, total - attributed), 4)
    return summary


def _percentiles_ms(latencies: list[float]) -> dict[str, float]:
    if not latencies:
        return {"p50_ms": 0.0, "p95_ms": 0.0}
    arr = np.asarray(latencies) * 1000.0
    return {
        "p50_ms": float(np.percentile(arr, 50)),
        "p95_ms": float(np.percentile(arr, 95)),
    }


def _decision_digest(result: SimulationResult) -> list[tuple]:
    """Everything that must match between cached and uncached runs."""
    return sorted(
        (
            o.job_id,
            o.status.value,
            o.admitted,
            o.completion_time,
            o.scale_events,
        )
        for o in result.outcomes
    )


def _digest_sha256(digest: list[tuple]) -> str:
    """Stable hash of a decision digest, comparable across processes.

    The digest is a sorted list of primitive tuples, so its ``repr`` is
    deterministic; hashing it lets separate benchmark invocations (e.g.
    two scales or two trees) assert decision equivalence without
    carrying the full outcome list around.
    """
    return hashlib.sha256(repr(digest).encode()).hexdigest()


#: Hotspot rows exported under the report's ``profile`` key.
PROFILE_TOP_N = 20


def _top_hotspots(profiler: cProfile.Profile, limit: int = PROFILE_TOP_N) -> list[dict]:
    """The ``limit`` most cumulative-expensive functions of a profile run."""
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    rows: list[dict] = []
    for func in stats.fcn_list[:limit]:
        cc, nc, tt, ct, _callers = stats.stats[func]
        filename, line, name = func
        rows.append(
            {
                "function": f"{filename}:{line}({name})",
                "ncalls": nc,
                "primitive_calls": cc,
                "tottime_s": round(tt, 4),
                "cumtime_s": round(ct, 4),
            }
        )
    return rows


def _benchmark_workload(
    n_jobs: int,
    seed: int,
    *,
    cluster_gpus: int = BENCH_CLUSTER_GPUS,
    gpu_weights: dict[int, float] | None = None,
):
    kwargs: dict[str, Any] = {}
    if gpu_weights is not None:
        kwargs["gpu_weights"] = gpu_weights
    config = ClusterTraceConfig(
        "bench-philly",
        cluster_gpus,
        n_jobs,
        target_load=1.1,
        duration_median_s=3000.0,
        duration_sigma=1.2,
        **kwargs,
    )
    trace = generate_trace(config, seed=seed)
    throughput = ThroughputModel()
    specs = build_jobs(trace, throughput, seed=seed)
    cluster = ClusterSpec(n_nodes=cluster_gpus // 8, gpus_per_node=8)
    return cluster, specs, throughput


def _policy() -> ElasticFlowPolicy:
    # The ExperimentConfig defaults: the protection knobs every figure uses.
    return ElasticFlowPolicy(
        safety_margin=0.03, deadline_padding_s=60.0, stability_threshold=0.3
    )


def _run_sim(
    n_jobs: int,
    seed: int,
    *,
    cluster_gpus: int = BENCH_CLUSTER_GPUS,
    gpu_weights: dict[int, float] | None = None,
) -> tuple[dict[str, Any], SimulationResult]:
    cluster, specs, throughput = _benchmark_workload(
        n_jobs, seed, cluster_gpus=cluster_gpus, gpu_weights=gpu_weights
    )
    policy = _policy()
    sim = _TimedSimulator(
        cluster,
        policy,
        specs,
        throughput=throughput,
        slot_seconds=BENCH_SLOT_SECONDS,
        record_timeline=False,
    )
    recorder = probe.PhaseRecorder()
    probe.reset_counters()
    start = time.perf_counter()
    with probe.recording(recorder):
        result = sim.run()
    wall = time.perf_counter() - start
    metrics: dict[str, Any] = {
        "wall_s": wall,
        "events": result.events_processed,
        "events_per_sec": result.events_processed / wall if wall > 0 else 0.0,
        **_percentiles_ms(sim.event_latencies),
        "phases": _phase_summary(recorder.events, sim.event_latencies),
        "counters": probe.counters(),
    }
    return metrics, result


def bench_end_to_end(
    n_jobs: int,
    seed: int,
    *,
    cluster_gpus: int = BENCH_CLUSTER_GPUS,
    gpu_weights: dict[int, float] | None = None,
    reference_mode: str = "cache-disabled",
    profile: bool = False,
) -> dict[str, Any]:
    """Run the benchmark trace twice and verify decision equivalence.

    ``reference_mode`` picks the comparison run: ``"cache-disabled"`` is
    the from-scratch reference solver (the strongest yardstick), while
    ``"sequential-solver"`` keeps the caches but runs the paper-literal
    loops instead of the ladder-table solvers — the tractable yardstick
    for the large scales.  The comparison run's metrics keep the
    historical ``"uncached"`` key either way so downstream readers need
    no schema branch.  With ``profile`` the *cached* run executes under
    :mod:`cProfile` and the report gains a ``profile`` key with the top
    cumulative hotspots; the default path never touches the profiler, so
    it stays zero-overhead when off.
    """
    reset_cache()
    profiler: cProfile.Profile | None = None
    if profile:
        profiler = cProfile.Profile()
        profiler.enable()
    cached_metrics, cached_result = _run_sim(
        n_jobs, seed, cluster_gpus=cluster_gpus, gpu_weights=gpu_weights
    )
    if profiler is not None:
        profiler.disable()
    if reference_mode == "sequential-solver":
        with batched_solver_disabled():
            uncached_metrics, uncached_result = _run_sim(
                n_jobs, seed, cluster_gpus=cluster_gpus, gpu_weights=gpu_weights
            )
    else:
        with planning_cache_disabled():
            uncached_metrics, uncached_result = _run_sim(
                n_jobs, seed, cluster_gpus=cluster_gpus, gpu_weights=gpu_weights
            )
    speedup = (
        uncached_metrics["wall_s"] / cached_metrics["wall_s"]
        if cached_metrics["wall_s"] > 0
        else float("inf")
    )
    cached_digest = _decision_digest(cached_result)
    report = {
        "n_jobs": n_jobs,
        "cluster_gpus": cluster_gpus,
        "reference_mode": reference_mode,
        "cached": cached_metrics,
        "uncached": uncached_metrics,
        "speedup": speedup,
        "decisions_match": cached_digest == _decision_digest(uncached_result),
        "digest_sha256": _digest_sha256(cached_digest),
    }
    if profiler is not None:
        report["profile"] = _top_hotspots(profiler)
    return report


def bench_admission(n_candidates: int, seed: int) -> dict[str, Any]:
    """Time the policy's arrival-time admission path over a job stream."""
    from repro.core.job import Job
    from repro.sim.interface import PolicyContext

    cluster, specs, throughput = _benchmark_workload(n_candidates, seed)
    policy = _policy()
    policy.bind(
        PolicyContext(
            cluster=cluster, throughput=throughput, slot_seconds=BENCH_SLOT_SECONDS
        )
    )
    reset_cache()
    active: list[Job] = []
    latencies: list[float] = []
    for spec in specs:
        job = Job(spec=spec)
        start = time.perf_counter()
        kept = policy.admit(job, active, spec.submit_time)
        latencies.append(time.perf_counter() - start)
        if kept and len(active) < 64:
            job.mark_admitted(spec.submit_time)
            active.append(job)
    total = sum(latencies)
    return {
        "candidates": len(latencies),
        "ops_per_sec": len(latencies) / total if total > 0 else 0.0,
        **_percentiles_ms(latencies),
    }


def bench_allocation(n_jobs: int, rounds: int, seed: int) -> dict[str, Any]:
    """Time full allocate() passes over a fixed active set."""
    from repro.core.job import Job
    from repro.sim.interface import PolicyContext

    cluster, specs, throughput = _benchmark_workload(n_jobs, seed)
    policy = _policy()
    policy.bind(
        PolicyContext(
            cluster=cluster, throughput=throughput, slot_seconds=BENCH_SLOT_SECONDS
        )
    )
    reset_cache()
    base = max(spec.submit_time for spec in specs[:48])
    active = []
    for spec in specs[:48]:
        job = Job(spec=spec)
        job.mark_admitted(spec.submit_time)
        active.append(job)
    latencies: list[float] = []
    for round_index in range(rounds):
        # Advance "now" each round so every pass replans from scratch, as a
        # periodic replan event would.
        now = base + round_index * 1.0
        start = time.perf_counter()
        policy.allocate(active, now)
        latencies.append(time.perf_counter() - start)
    total = sum(latencies)
    return {
        "active_jobs": len(active),
        "rounds": rounds,
        "allocs_per_sec": rounds / total if total > 0 else 0.0,
        **_percentiles_ms(latencies),
    }


#: Buddy micro-bench shape: a 16k-scale half-cluster worth of GPUs and
#: enough operations that per-op dispatch dominates the rng setup.
BUDDY_BENCH_GPUS = 4096
BUDDY_BENCH_OPS = 20_000
#: Iterations of the fixed loop the buddy micro-bench is timed against.
CALIBRATION_OPS = 800_000


def _calibration_wall() -> float:
    """Wall time of a fixed pure-Python loop of set, heap and bit
    operations, the allocator's own mix, that no code change moves."""
    free: set[int] = set()
    heap: list[int] = []
    mask = 0
    start = time.perf_counter()
    for i in range(CALIBRATION_OPS):
        offset = (i * 2654435761) & 4095
        if offset in free:
            free.discard(offset)
        else:
            free.add(offset)
            heapq.heappush(heap, offset)
        mask ^= 1 << (offset & 31)
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - start


def bench_buddy(
    seed: int, *, capacity: int = BUDDY_BENCH_GPUS, ops: int = BUDDY_BENCH_OPS
) -> dict[str, Any]:
    """Time the buddy-allocator hot paths under a mixed op sequence.

    A seeded stream of allocate-biased operations (allocate / free /
    shrink, with an occasional full repack) keeps the allocator loaded so
    ``allocate``'s fit scan and ``free``'s coalescing both run against a
    realistically fragmented free list.  ``calibration_s`` times a fixed
    loop in the same process right after; the ``buddy_bench`` entry of
    the :mod:`repro.perf.delta` gate is ``wall_s`` over it.
    """
    from repro.cluster.buddy import BuddyAllocator

    rng = np.random.default_rng(seed)
    sizes = (1, 2, 4, 8, 16, 32, 64)
    op_draws = rng.integers(0, 100, size=ops)
    size_draws = rng.integers(0, len(sizes), size=ops)
    victim_draws = rng.integers(0, 1 << 30, size=ops)
    allocator = BuddyAllocator(capacity)
    live: list = []
    performed = 0
    start = time.perf_counter()
    for i in range(ops):
        draw = op_draws[i]
        if draw < 55:
            size = sizes[size_draws[i]]
            if allocator.can_allocate(size):
                live.append(allocator.allocate(size))
                performed += 1
        elif draw < 85:
            if live:
                allocator.free(live.pop(victim_draws[i] % len(live)))
                performed += 1
        elif draw < 99:
            if live:
                index = victim_draws[i] % len(live)
                block = live[index]
                if block.size > 1:
                    live[index] = allocator.shrink(block, block.size // 2)
                    performed += 1
        else:
            plan = allocator.repack_plan()
            allocator.apply_repack(plan)
            live = [plan.get(block, block) for block in live]
            performed += 1
    wall = time.perf_counter() - start
    return {
        "capacity": capacity,
        "ops": performed,
        "wall_s": round(wall, 4),
        "ops_per_sec": round(performed / wall, 1) if wall > 0 else 0.0,
        "calibration_s": round(_calibration_wall(), 4),
    }


def run_benchmarks(
    *,
    quick: bool = False,
    seed: int = 0,
    scale: str | None = None,
    profile: bool = False,
) -> dict[str, Any]:
    """Run the harness at one scale and return the report dictionary.

    ``--quick`` remains an alias for ``scale="quick"``.  The two large
    scales run only the end-to-end benchmark (the micro benches measure
    per-call dispatch, which does not change with cluster size).
    ``profile`` runs the cached end-to-end pass under :mod:`cProfile` and
    exports the hotspots under the report's ``profile`` key.
    """
    if scale is None:
        scale = "quick" if quick else "full"
    params = SCALES[scale]
    report: dict[str, Any] = {
        "schema": 2,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "quick": scale == "quick",
        "scale": scale,
        "seed": seed,
    }
    if scale in ("quick", "full"):
        report["admission"] = bench_admission(
            100 if scale == "quick" else 400, seed
        )
        report["allocation"] = bench_allocation(
            params["n_jobs"], 20 if scale == "quick" else 60, seed
        )
        report["buddy"] = bench_buddy(seed)
    end_to_end = bench_end_to_end(
        params["n_jobs"],
        seed,
        cluster_gpus=params["cluster_gpus"],
        gpu_weights=params["gpu_weights"],
        reference_mode=params["reference_mode"],
        profile=profile,
    )
    if "profile" in end_to_end:
        report["profile"] = end_to_end.pop("profile")
    report["end_to_end"] = end_to_end
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Benchmark the scheduling hot loop and record the results.",
    )
    parser.add_argument(
        "--suite",
        choices=("core", "figures"),
        default="core",
        help="'core' times the hot loop; 'figures' times the parallel "
        "experiment engine over the figure grids",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small trace for CI smoke runs (alias for --scale quick)",
    )
    parser.add_argument(
        "--scale",
        choices=tuple(SCALES),
        default=None,
        help="benchmark scale (mid/xl run only the end-to-end trace and "
        "verify against the sequential solver)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--profile",
        action="store_true",
        help="cProfile the cached end-to-end run and export the top "
        f"{PROFILE_TOP_N} cumulative hotspots under the report's "
        "'profile' key (zero overhead when off)",
    )
    parser.add_argument(
        "--workers",
        default="4",
        help="fan-out width for --suite figures (int or 'auto')",
    )
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        help=f"report path (default: {DEFAULT_OUTPUT} or BENCH_parallel.json)",
    )
    args = parser.parse_args(argv)
    # The report is written after the run; reject an unwritable location
    # before spending minutes on it.
    if args.output is not None:
        parent = os.path.dirname(os.path.abspath(args.output))
        if not os.path.isdir(parent):
            parser.error(f"output directory does not exist: {parent}")
    if args.suite == "figures":
        from repro.perf.figures import DEFAULT_OUTPUT as FIGURES_OUTPUT
        from repro.perf.figures import run_figure_suite

        report = run_figure_suite(
            quick=args.quick, seed=args.seed, workers=args.workers
        )
        output = args.output or FIGURES_OUTPUT
        with open(output, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(
            f"figure suite ({report['cells']} cells, {report['cores']} cores): "
            f"{report['serial_cold_s']:.2f}s serial vs "
            f"{report['parallel_cold_s']:.2f}s at workers={report['workers']} "
            f"({report['speedup']}x), warm re-run {report['warm_s']:.2f}s "
            f"({report['warm_speedup']}x over cold), "
            f"decisions_match={report['decisions_match']}"
        )
        print(f"report written to {output}")
        return 0
    report = run_benchmarks(
        quick=args.quick,
        seed=args.seed,
        scale=args.scale,
        profile=args.profile,
    )
    output = args.output or DEFAULT_OUTPUT
    with open(output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    e2e = report["end_to_end"]
    print(
        f"end-to-end ({e2e['n_jobs']} jobs, {e2e['cluster_gpus']} GPUs): "
        f"{e2e['cached']['wall_s']:.2f}s cached vs "
        f"{e2e['uncached']['wall_s']:.2f}s {e2e['reference_mode']} "
        f"({e2e['speedup']:.2f}x, decisions_match={e2e['decisions_match']})"
    )
    micro = ""
    if "admission" in report:
        micro = (
            f"admission: {report['admission']['ops_per_sec']:.1f} ops/s | "
            f"allocation: {report['allocation']['allocs_per_sec']:.1f} allocs/s | "
            f"buddy: {report['buddy']['ops_per_sec']:.0f} ops/s | "
        )
    print(
        micro
        + f"events: {e2e['cached']['events_per_sec']:.1f}/s "
        f"(p50 {e2e['cached']['p50_ms']:.2f} ms, p95 {e2e['cached']['p95_ms']:.2f} ms)"
    )
    phases = e2e["cached"]["phases"]
    print(
        "phases (cached): "
        + " | ".join(f"{name} {phases[f'{name}_s']:.1f}s" for name in probe.PHASES)
        + f" | other {phases['other_s']:.1f}s"
    )
    counters = e2e["cached"]["counters"]
    fills = counters.get("alg1_fast_accepts", 0) + counters.get("alg1_fallbacks", 0)
    print(f"counters: alg1 {counters.get('alg1_repeats', 0)} repeats / {fills} fills")
    print(f"report written to {output}")
    return 0
