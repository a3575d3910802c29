"""One benchmark run of one workload; the command ``BENCHMARK.json`` names.

    python3 bench/run.py --workload philly --seed 0 --seconds 25 --trace 0

Run it from the repository root; it finds ``src/`` itself.  A run:

1. times set-up ``SETUP_PROBES`` times, each in a fresh process that
   imports the program, generates trace 0 and its jobs and constructs the
   simulators; ``setup_s`` is the median;
2. replays the workload's quality set, which is the same for every seed,
   and then traces 0, 1, 2, ... of the seed until ``--seconds`` have
   passed (see :mod:`bench.workloads`);
3. checks every replay: it completes (the engine validates each decision
   and starvation), every admitted job ends COMPLETED and every other job
   DROPPED, and its decision digest equals the one ``golden.json`` holds
   for that workload and trace, where it holds one;
4. prints a ``detail`` line, then the result as the last line of stdout.

With ``--trace 0`` the result holds the end-to-end metrics: throughput and
median latencies pool all replays, decision quality and peak memory are
measured on the quality set.  Every timing, ``setup_s`` too, is scaled to
a reference host speed measured alongside it (see :class:`HostSpeed`).
With ``--trace 1`` the first
``TRACED_TRACES`` traces of the quality set are replayed plain and traced
(see :mod:`bench.spans`), and then further pairs until the time is up; the
result holds the per-layer metrics of the traced replays plus the policy's
p95 latencies on the plain ones, and the spans are written to
``bench/out/`` as JSON lines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from collections import Counter
from collections.abc import Sequence
from contextlib import nullcontext
from pathlib import Path

_START = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
GOLDEN = ROOT / "bench" / "golden.json"
SPANS_DIR = ROOT / "bench" / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
TRACED_TRACES = 3
#: Seconds one speed probe takes at the reference host speed, its typical
#: time on an idle 2.1 GHz Xeon vCPU.  Timings are reported at this speed.
PROBE_REFERENCE_S = 0.0008
#: A speed probe runs between two policy calls once this many seconds have
#: passed since the last one ended.
PROBE_EVERY_S = 0.02
#: Speed probes run just before and just after each set-up process.
SETUP_SPEED_PROBES = 25


def single_thread_env() -> dict[str, str]:
    """This process's environment with the numeric libraries on one thread."""
    return {**os.environ, **dict.fromkeys(THREAD_VARS, "1")}


def benchmark() -> dict:
    """``BENCHMARK.json``: workload names, metric units, bounds, run length."""
    return json.loads(BENCHMARK.read_text())


# ------------------------------------------------------------- host speed
def speed_probe(values) -> float:
    """Fixed interpreter and numpy work, like the scheduler's; its seconds."""
    import numpy as np

    start = time.perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(3000):
        table[i & 255] = table.get(i & 255, 0) + i
        total += (i * i) % 7
    for _ in range(6):
        values = np.cumsum(values) % 97.0
    return time.perf_counter() - start


class HostSpeed:
    """How fast the host runs, from the speed probes measured so far.

    On a shared host the same replay takes up to twice as long for minutes
    at a time, because the vCPU itself runs slower, so wall time alone
    measures the neighbours.  Every timing the benchmark reports is scaled
    to the speed at which one :func:`speed_probe` takes
    :data:`PROBE_REFERENCE_S`.  Probes interleaved with the timed work cut
    the variation of one replay's time from about 20 % to about 5 %.
    """

    def __init__(self) -> None:
        import numpy as np

        self.seconds = 0.0
        self.probes = 0
        self._values = np.arange(4096.0)

    def measure(self) -> float:
        """Run one probe; its reference-speed seconds per measured second."""
        spent = speed_probe(self._values)
        self.seconds += spent
        self.probes += 1
        return PROBE_REFERENCE_S / spent

    def scale(self) -> float:
        """Reference-speed seconds per second over every probe so far."""
        return PROBE_REFERENCE_S * self.probes / self.seconds


# ------------------------------------------------------------------ set-up
def setup_only(name: str, seed: int, smoke: bool) -> dict[str, float]:
    """Build everything replay 0 needs; seconds per step since process start."""
    from bench import workloads

    imported = time.perf_counter()
    w = workloads.workload(name, smoke=smoke)
    trace, rng = workloads.make_trace(w, seed, 0)
    traced = time.perf_counter()
    inputs = workloads.make_inputs(w, trace, rng)
    built = time.perf_counter()
    workloads.simulators(w, inputs)
    done = time.perf_counter()
    return {
        "import_s": imported - _START,
        "trace_s": traced - imported,
        "jobs_s": built - traced,
        "sim_s": done - built,
        "setup_s": done - _START,
    }


def probe_setup(name: str, seed: int, smoke: bool) -> dict[str, float]:
    """:func:`setup_only` in a fresh single-threaded process, its seconds
    scaled by the host speed measured just before and after it."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    speed = HostSpeed()
    for _ in range(SETUP_SPEED_PROBES):
        speed.measure()
    done = subprocess.run(
        command, capture_output=True, text=True, env=single_thread_env(), timeout=120
    )
    for _ in range(SETUP_SPEED_PROBES):
        speed.measure()
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    scale = speed.scale()
    steps = json.loads(done.stdout.splitlines()[-1])
    return {step: seconds * scale for step, seconds in steps.items()}


# ----------------------------------------------------------------- replays
class DecisionClock:
    """Times every ``SchedulerPolicy`` call of the replays it is attached to.

    ``submit`` gets one sample per arrival: the ``admit`` call plus the
    ``allocate`` pass that the engine runs right after an admission, i.e.
    how long a serverless submitter waits to be placed or rejected.
    ``realloc`` gets one sample per ``allocate`` call.

    The clock also measures the host while it runs a simulator (:meth:`run`):
    a speed probe runs before the run starts and then between two policy
    calls every :data:`PROBE_EVERY_S`, outside every timed interval.  Each
    stretch of time, and each sample, is scaled by the speed the latest
    probe measured, which follows the host's changes within a replay; this
    halved the variation of one replay's ``baselines`` median latency on a
    loaded host.  ``wall`` is the seconds spent inside ``Simulator.run``
    less the probes, ``scaled_wall`` the same time at the reference speed,
    and the samples are reference-speed seconds.
    """

    def __init__(self) -> None:
        self.submit: list[float] = []
        self.realloc: list[float] = []
        self.speed = HostSpeed()
        self.wall = 0.0
        self.scaled_wall = 0.0
        self._admitted: float | None = None
        self._scale = 1.0
        self._since = 0.0
        self._next_probe = 0.0

    def probe(self) -> None:
        """Run a speed probe if one is due."""
        now = time.perf_counter()
        if now >= self._next_probe:
            self._lap(now)
            self._scale = self.speed.measure()
            self._since = time.perf_counter()
            self._next_probe = self._since + PROBE_EVERY_S

    def _lap(self, now: float) -> None:
        """Book the time since the last probe at that probe's speed."""
        self.wall += now - self._since
        self.scaled_wall += (now - self._since) * self._scale

    def run(self, sim):
        """``sim.run()`` with every policy call timed."""
        self._attach(sim.policy)
        self._scale = self.speed.measure()
        self._since = time.perf_counter()
        self._next_probe = self._since + PROBE_EVERY_S
        result = sim.run()
        self._lap(time.perf_counter())
        return result

    def _attach(self, policy) -> None:
        admit, allocate = policy.admit, policy.allocate
        self._admitted = None
        clock = time.perf_counter

        def timed_admit(job, active, now):
            self.probe()
            start = clock()
            kept = admit(job, active, now)
            elapsed = (clock() - start) * self._scale
            if kept:
                self._admitted = elapsed
            else:
                self.submit.append(elapsed)
            return kept

        def timed_allocate(active, now):
            self.probe()
            start = clock()
            decisions = allocate(active, now)
            elapsed = (clock() - start) * self._scale
            self.realloc.append(elapsed)
            if self._admitted is not None:
                self.submit.append(self._admitted + elapsed)
                self._admitted = None
            return decisions

        policy.admit = timed_admit
        policy.allocate = timed_allocate


def replay(
    w, seed: int | None, index: int, *, clock: DecisionClock | None = None, tracer=None
):
    """Replay trace ``index`` of ``seed`` (``None``: the quality set) under
    every policy of ``w``.

    Returns the seconds spent inside ``Simulator.run`` (less the clock's
    speed probes) and the results.
    """
    from bench import spans, workloads

    trace, rng = workloads.make_trace(w, seed, index)
    sims = workloads.simulators(w, workloads.make_inputs(w, trace, rng))
    wall = 0.0
    results = []
    with spans.instrumented(tracer) if tracer is not None else nullcontext():
        for sim in sims:
            if clock is not None:
                results.append(clock.run(sim))
                continue
            if tracer is not None:
                spans.trace_policy(tracer, sim.policy)
            start = time.perf_counter()
            results.append(sim.run())
            wall += time.perf_counter() - start
    return (wall if clock is None else clock.wall), results


def digest(results) -> str:
    """sha256 over each policy's sorted per-job decisions."""
    sha = hashlib.sha256()
    for result in results:
        rows = sorted(
            (o.job_id, o.status.value, o.admitted, o.completion_time, o.scale_events)
            for o in result.outcomes
        )
        sha.update(repr((result.policy_name, rows)).encode())
    return sha.hexdigest()


def problems(w, results, expected: str | None) -> list[str]:
    """Decision-correctness failures of one replay (empty when correct)."""
    from repro.core.job import JobStatus

    found = []
    for result in results:
        if len(result.outcomes) != w.jobs:
            found.append(f"{result.policy_name}: {len(result.outcomes)} of {w.jobs} jobs")
        for outcome in result.outcomes:
            wanted = JobStatus.COMPLETED if outcome.admitted else JobStatus.DROPPED
            if outcome.status is not wanted:
                found.append(
                    f"{result.policy_name}: {outcome.job_id} ended "
                    f"{outcome.status.value}, admitted={outcome.admitted}"
                )
    produced = digest(results)
    if expected is not None and produced != expected:
        found.append(f"decision digest {produced[:12]} differs from golden {expected[:12]}")
    return found


def trace_digests(w, seed: int | None, count: int) -> list[str]:
    """Digests of traces 0..count-1 of ``seed``, replayed once without timing."""
    digests = []
    for index in range(count):
        _, results = replay(w, seed, index)
        found = problems(w, results, None)
        if found:
            raise RuntimeError(f"{w.name} {stream(seed)} trace {index}: {found[:3]}")
        digests.append(digest(results))
    return digests


def stream(seed: int | None) -> str:
    """Key of a trace stream in ``golden.json``: ``quality`` or the seed."""
    return "quality" if seed is None else str(seed)


def golden_for(golden: dict | None, name: str, smoke: bool) -> dict[str, list[str | None]]:
    """Per-stream, per-trace golden digests of one workload (may be empty)."""
    size = "smoke" if smoke else "default"
    return (golden or {}).get(size, {}).get(name, {})


def quality_counts(results) -> Counter[str]:
    """Jobs, deadlines met, admissions, on-time admissions and rescales of
    one replay.

    Counts, not outcomes, are kept across replays so that the benchmark's
    own bookkeeping stays out of ``peak_rss_mb``.
    """
    counts: Counter[str] = Counter()
    for result in results:
        for o in result.outcomes:
            counts["jobs"] += 1
            counts["met"] += o.met_deadline
            counts["admitted"] += o.admitted
            counts["admitted_met"] += o.admitted and o.met_deadline
            counts["scale_events"] += o.scale_events
    return counts


def percentile_ms(samples: Sequence[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1] * 1000.0


def _counters() -> Counter[str]:
    """The program's own operation counters, where it keeps them."""
    try:
        from repro.perf import probe
    except ImportError:
        return Counter()
    read = getattr(probe, "counters", None)
    return Counter(read()) if read is not None else Counter()


# ---------------------------------------------------------------- measure
class Run:
    """Attempts, failures and notes of one run's replays."""

    def __init__(self, w, seed: int, golden: dict[str, list[str | None]]) -> None:
        self.w, self.seed, self.golden = w, seed, golden
        self.attempted = self.failed = self.checked = 0
        self.notes: list[str] = []

    def source(self, position: int) -> tuple[int | None, int]:
        """Seed and index of the run's ``position``-th trace: the quality
        set first, then the run's seed."""
        quality = self.w.quality_traces
        return (None, position) if position < quality else (self.seed, position - quality)

    def replay(self, position: int, **kwargs):
        """The ``position``-th trace, replayed and checked; ``None`` when it raised.

        A replay that completes but fails a check still counts as measured
        work; it makes the run incorrect.
        """
        seed, index = self.source(position)
        label = f"{stream(seed)} trace {index}"
        self.attempted += 1
        try:
            wall, results = replay(self.w, seed, index, **kwargs)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            self.notes.append(f"{label}: raised")
            return None
        pinned = self.golden.get(stream(seed), [])
        expected = pinned[index] if index < len(pinned) else None
        self.checked += expected is not None
        found = problems(self.w, results, expected)
        if found:
            self.failed += 1
            self.notes.extend(f"{label}: {problem}" for problem in found[:5])
        return wall, results


def measure_plain(run: Run, deadline: float) -> tuple[dict, dict]:
    """End-to-end metrics: replay until ``deadline``, the quality set at least."""
    w = run.w
    # Pooled over the run rather than a median of per-replay values: a
    # single trace's median latency varies by up to 25 % either way, and a
    # median of a dozen such values jumps between them from seed to seed.
    # Compact arrays keep the samples out of ``peak_rss_mb``.
    submit, realloc = array("d"), array("d")
    wall = scaled_wall = 0.0
    jobs = 0
    fewest = sys.maxsize
    quality: Counter[str] = Counter()
    peak_rss_mb = 0.0
    position = 0
    while position < w.quality_traces or time.perf_counter() < deadline:
        clock = DecisionClock()
        replayed = run.replay(position, clock=clock)
        if replayed is not None:
            wall += replayed[0]
            scaled_wall += clock.scaled_wall
            jobs += w.jobs * len(w.policies)
            submit.extend(clock.submit)
            realloc.extend(clock.realloc)
            fewest = min(fewest, len(clock.submit), len(clock.realloc))
            if position < w.quality_traces:
                quality.update(quality_counts(replayed[1]))
        if position == w.quality_traces - 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        position += 1
    values = {
        "jobs_per_s": jobs / scaled_wall,
        "submit_p50_ms": percentile_ms(submit, 50),
        "realloc_p50_ms": percentile_ms(realloc, 50),
        "peak_rss_mb": peak_rss_mb,
        "dsr": quality["met"] / quality["jobs"],
        "admitted_ontime": quality["admitted_met"] / quality["admitted"],
        "scale_events": quality["scale_events"],
    }
    detail = {
        "replays": position,
        "submit_samples": len(submit),
        "realloc_samples": len(realloc),
        "fewest_samples_in_a_replay": fewest,
        "speed_scale": scaled_wall / wall,
        "unscaled_jobs_per_s": jobs / wall,
    }
    return values, detail


def measure_traced(run: Run, deadline: float, spans_path: Path | None) -> tuple[dict, dict]:
    """Per-layer metrics from traced replays, plus the tracing overhead."""
    from bench import spans

    w = run.w
    traced_count = min(TRACED_TRACES, w.quality_traces)
    tracers: list = []
    ratios: list[float] = []
    submit, realloc = array("d"), array("d")
    wall = 0.0
    events = 0
    counters: Counter[str] = Counter()
    position = 0
    while position < traced_count or time.perf_counter() < deadline:
        tracer = spans.Tracer()
        clock = DecisionClock()
        before = _counters()
        # Alternate which side goes first so that warm-up and drift within
        # the run fall on both sides equally.
        if position % 2:
            traced = run.replay(position, tracer=tracer)
            plain = run.replay(position, clock=clock)
        else:
            plain = run.replay(position, clock=clock)
            traced = run.replay(position, tracer=tracer)
        if plain is not None and traced is not None:
            if digest(plain[1]) != digest(traced[1]):
                run.failed += 1
                seed, index = run.source(position)
                run.notes.append(f"{stream(seed)} trace {index}: tracing changed the decisions")
            ratios.append(traced[0] / plain[0])
            submit.extend(clock.submit)
            realloc.extend(clock.realloc)
            if position < traced_count:
                tracers.append(tracer)
                wall += traced[0]
                events += sum(r.events_processed for r in traced[1])
                counters.update(_counters() - before)
        position += 1
    values = {
        **spans.layer_metrics(tracers, wall, events),
        "trace.wall_s": wall,
        "trace.spans": sum(len(t.names) for t in tracers),
        "trace.overhead_ratio": statistics.median(ratios),
        "policy.submit_p95_ms": percentile_ms(submit, 95),
        "policy.realloc_p95_ms": percentile_ms(realloc, 95),
    }
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        with open(spans_path, "w") as handle:
            for number, tracer in enumerate(tracers):
                tracer.write_jsonl(handle, replay=number)
    return values, {"replays": 2 * position, "counters": dict(sorted(counters.items()))}


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    smoke: bool = False,
    golden: dict | None = None,
    spans_path: Path | None = None,
) -> tuple[dict, dict]:
    """One run; returns the result object and a detail dict."""
    setups = [probe_setup(name, seed, smoke) for _ in range(SETUP_PROBES)]
    from bench import workloads

    run = Run(workloads.workload(name, smoke=smoke), seed, golden_for(golden, name, smoke))
    deadline = time.perf_counter() + seconds
    if trace:
        values, detail = measure_traced(run, deadline, spans_path)
        values.update(
            {f"setup.{step}": statistics.median(s[step] for s in setups)
             for step in ("import_s", "trace_s", "jobs_s")}
        )
    else:
        values, detail = measure_plain(run, deadline)
        values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": with_units(values, "per_layer" if trace else "end_to_end"),
    }
    detail.update(
        workload=name,
        seed=seed,
        golden_checks=run.checked,
        setups=setups,
        notes=run.notes,
    )
    return result, detail


def with_units(values: dict[str, float], section: str) -> dict[str, dict]:
    """Attach ``BENCHMARK.json``'s units; every listed metric must be present."""
    listed = benchmark()[section]
    names = [metric["name"] for metric in listed]
    if sorted(names) != sorted(values):
        missing = sorted(set(names) - set(values))
        extra = sorted(set(values) - set(names))
        raise RuntimeError(f"{section} metrics disagree: missing {missing}, extra {extra}")
    return {
        metric["name"]: {"value": float(values[metric["name"]]), "unit": metric["unit"]}
        for metric in listed
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=benchmark()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="100-job traces, one quality trace")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    if not (SRC / "repro").is_dir():
        print(f"bench: the program's source is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps(setup_only(args.workload, args.seed, args.smoke)))
        return 0
    from bench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else None
    suffix = "-smoke" if args.smoke else ""
    spans_path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}{suffix}.jsonl"
    result, detail = measure(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        smoke=args.smoke,
        golden=golden,
        spans_path=spans_path if args.trace else None,
    )
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    sys.path[:1] = [str(SRC), str(ROOT)]
    sys.exit(main())
