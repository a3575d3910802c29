"""Run the benchmark, compare result files, and record golden digests.

    PYTHONPATH=src python -m bench [--workload W]... [--seed S] [--seconds T]
                                   [--repeat R] [--sets N] [--trace] [--smoke]
                                   [-o OUT.json]
    python -m bench compare BASE.json[:SET] HEAD.json[:SET]
    PYTHONPATH=src python -m bench --record-golden --seed S

Every run is ``bench/run.py`` in a fresh single-threaded process, one at a
time.  ``--repeat R`` runs the workloads round-robin R times; ``--sets N``
interleaves N sets of runs of the same code (set 0 run 1, set 1 run 1, set
0 run 2, ...), so two sets can be compared against each other.  ``--trace``
adds one traced run per workload.  The report prints each end-to-end
metric's median and quartiles with its unit; ``-o`` saves every run.

``compare`` applies the ``BENCHMARK.json`` bounds to two saved sets and
prints one row per workload and metric: ``improved`` (at least ten
index-paired runs, nine tenths of them won, and a median gain wider than
the quartile spread), ``worse`` (the median is worse by more than the
bound, and either the runs spread less than the bound or every head run
is worse than every base run), ``unresolved`` (the runs spread wider than
the bound) or ``within bound``, with the wins per pair.  Metrics come from
correct runs only.  A first ``errors`` row per workload counts the runs
that failed or raised; it reads ``worse`` when head has more of them than
base, and ``missing`` when head has no result for a workload that base
has.  ``compare`` exits 1 on any ``worse`` or ``missing`` row.

``--record-golden`` writes to ``bench/golden.json`` the per-trace digests
of each workload's quality set and of the first traces of seed S (as many
as the quality set), at default and smoke sizes.  It refuses any trace on
which the current code decides differently from its reference yardstick,
run once here only: the cache-free planner for ``philly`` and
``adaptive``, the sequential solver for ``large-model``, and a second plain
replay for ``baselines``.  A refused trace is stored as ``null`` (no golden)
and the command exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

from bench.run import GOLDEN, ROOT, SRC, THREAD_VARS, benchmark, single_thread_env

RUN_SCRIPT = ROOT / "bench" / "run.py"
#: A gain is claimed only over at least this many index-paired runs.
MIN_PAIRS_FOR_GAIN = 10


def run_child(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One ``bench/run.py`` process; its result and detail, or an error."""
    command = [
        sys.executable, str(RUN_SCRIPT), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
    ] + (["--smoke"] if smoke else [])
    try:
        done = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, env=single_thread_env(), timeout=900
        )
    except subprocess.TimeoutExpired:
        return {"error": "timeout"}
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        return {"error": f"exit code {done.returncode}"}
    run = {"result": json.loads(lines[-1])}
    for line in lines:
        if line.startswith("detail "):
            run["detail"] = json.loads(line[len("detail "):])
    return run


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Median and first/third quartiles as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def metric_values(runs: list[dict], name: str) -> list[float]:
    """One metric's values over the correct runs."""
    return [
        run["result"]["metrics"][name]["value"]
        for run in runs
        if "result" in run and run["result"]["correct"] and name in run["result"]["metrics"]
    ]


def failed_runs(runs: list[dict]) -> int:
    return sum(1 for run in runs if "result" not in run or not run["result"]["correct"])


def print_report(report: dict) -> None:
    spec = benchmark()
    for number, runs_by_workload in enumerate(report["sets"]):
        for workload, runs in runs_by_workload.items():
            details = [run["detail"] for run in runs if "detail" in run]
            print(
                f"\n{workload} · set {number} · seed {report['seed']} · {len(runs)} runs · "
                f"error_rate {failed_runs(runs)}/{len(runs)}"
            )
            for detail in details:
                for note in detail["notes"]:
                    print(f"  ! {note}")
            if details:
                print(
                    "  per run (median): "
                    f"{statistics.median(d['replays'] for d in details):g} replays, "
                    f"{statistics.median(d['submit_samples'] for d in details):g} submits, "
                    f"{statistics.median(d['realloc_samples'] for d in details):g} reallocs; "
                    f"fewest samples in a replay "
                    f"{min(d['fewest_samples_in_a_replay'] for d in details)}; "
                    f"{details[0]['golden_checks']} replays checked against golden digests"
                )
                print(
                    "  host speed scale (median) "
                    f"{statistics.median(d['speed_scale'] for d in details):.3f}, unscaled "
                    f"{statistics.median(d['unscaled_jobs_per_s'] for d in details):.5g} jobs/s"
                )
            for metric in spec["end_to_end"]:
                values = metric_values(runs, metric["name"])
                if values:
                    median, q1, q3 = quartiles(values)
                    print(
                        f"  {metric['name']:<16} {median:>12.5g} {metric['unit']:<7} "
                        f"[q1 {q1:.5g}, q3 {q3:.5g}]"
                    )
    for workload, run in report["traced"].items():
        print(f"\n{workload} · traced · error_rate {failed_runs([run])}/1")
        if "result" not in run:
            continue
        for note in run["detail"]["notes"]:
            print(f"  ! {note}")
        metrics = run["result"]["metrics"]
        shares = sum(m["value"] for name, m in metrics.items() if name.endswith("self_share"))
        for name, metric in metrics.items():
            print(f"  {name:<34} {metric['value']:>12.5g} {metric['unit']}")
        print(f"  self-time shares sum to {shares:.6f} of {metrics['trace.wall_s']['value']:.3f} s")


def judge(
    base: list[float], head: list[float], better: str, bound: float
) -> tuple[str, int, float]:
    """Verdict for one metric, head wins over index-paired runs, relative change."""
    sign = 1.0 if better == "lower" else -1.0
    base_median, base_q1, base_q3 = quartiles(base)
    head_median, head_q1, head_q3 = quartiles(head)
    change = (head_median - base_median) / base_median if base_median else 0.0
    worse_by = sign * change
    spread = max(
        (base_q3 - base_q1) / base_median if base_median else 0.0,
        (head_q3 - head_q1) / head_median if head_median else 0.0,
    )
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (h - b) < 0)
    every_run_better = max(head) < min(base) if better == "lower" else min(head) > max(base)
    every_run_worse = min(head) > max(base) if better == "lower" else max(head) < min(base)
    if worse_by > bound and (spread <= bound or every_run_worse):
        verdict = "worse"
    elif spread > bound and not every_run_better:
        verdict = "unresolved"
    elif len(pairs) >= MIN_PAIRS_FOR_GAIN and -worse_by > spread and wins >= 0.9 * len(pairs):
        verdict = "improved"
    else:
        verdict = "within bound"
    return verdict, wins, change


def load_set(argument: str) -> dict:
    """``FILE`` or ``FILE:SET`` of a saved report."""
    path, _, index = argument.partition(":")
    return json.loads(Path(path).read_text())["sets"][int(index or 0)]


def errors_verdict(base_runs: list[dict], head_runs: list[dict]) -> str:
    """Verdict on failed runs: head may not fail more often than base."""
    if any("result" in run for run in base_runs) and not any("result" in run for run in head_runs):
        return "missing"
    return "worse" if failed_runs(head_runs) > failed_runs(base_runs) else "within bound"


def compare(base_argument: str, head_argument: str) -> int:
    base, head = load_set(base_argument), load_set(head_argument)
    print(f"{'workload':<12} {'metric':<16} {'base':>10} {'head':>10} {'change':>8} "
          f"{'bound':>6}  {'wins':>5}  verdict")
    worse = 0
    for workload, base_runs in base.items():
        head_runs = head.get(workload, [])
        verdict = errors_verdict(base_runs, head_runs)
        worse += verdict != "within bound"
        print(
            f"{workload:<12} {'errors':<16} "
            f"{f'{failed_runs(base_runs)}/{len(base_runs)}':>10} "
            f"{f'{failed_runs(head_runs)}/{len(head_runs)}':>10} {'':>8} {'':>6}  "
            f"{'':>5}  {verdict}"
        )
        for metric in benchmark()["end_to_end"]:
            b = metric_values(base_runs, metric["name"])
            h = metric_values(head_runs, metric["name"])
            if not b or not h:
                continue
            verdict, wins, change = judge(b, h, metric["better"], metric["bound"])
            worse += verdict == "worse"
            print(
                f"{workload:<12} {metric['name']:<16} {quartiles(b)[0]:>10.4g} "
                f"{quartiles(h)[0]:>10.4g} {change:>+8.1%} {metric['bound']:>6.1%}  "
                f"{wins:>2}/{min(len(b), len(h)):<2}  {verdict}"
            )
    return 1 if worse else 0


def record_golden(seed: int) -> int:
    # The yardsticks are escape hatches of the program; only this command,
    # never a timed run, imports them.
    from repro.perf.tables import batched_solver_disabled, planning_cache_disabled

    from bench import run, workloads

    yardsticks = {
        "philly": planning_cache_disabled,
        "large-model": batched_solver_disabled,
        "adaptive": planning_cache_disabled,
        "baselines": nullcontext,
    }
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    refused = 0
    for smoke in (True, False):
        size = "smoke" if smoke else "default"
        for name, yardstick in yardsticks.items():
            w = workloads.workload(name, smoke=smoke)
            entries = golden.setdefault(size, {}).setdefault(name, {})
            for source in (None, seed):
                key = run.stream(source)
                produced = run.trace_digests(w, source, w.quality_traces)
                with yardstick():
                    reference = run.trace_digests(w, source, w.quality_traces)
                # A trace the yardstick decides differently gets no golden:
                # the benchmark must not pin decisions its reference
                # contradicts.
                agreed = [p if p == r else None for p, r in zip(produced, reference)]
                diverged = [index for index, entry in enumerate(agreed) if entry is None]
                refused += len(diverged)
                if entries.get(key, agreed) != agreed:
                    print(f"note: {size} {name} {key} digests changed")
                entries[key] = agreed
                print(f"{size} {name} {key}: {len(agreed) - len(diverged)} of {len(agreed)} "
                      f"traces agree with {yardstick.__name__}")
                if diverged:
                    print(f"refusing traces {diverged} of {size} {name} {key}: they decide "
                          f"differently under {yardstick.__name__}", file=sys.stderr)
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return 1 if refused else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="python -m bench compare")
        parser.add_argument("base", help="saved report, optionally FILE:SET")
        parser.add_argument("head", help="saved report, optionally FILE:SET")
        args = parser.parse_args(argv[1:])
        return compare(args.base, args.head)

    spec = benchmark()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--smoke", action="store_true", help="100-job traces")
    parser.add_argument("-o", "--output", type=Path)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.repeat < 1 or args.sets < 1:
        parser.error("--seed must be >= 0, --repeat and --sets >= 1")

    if args.record_golden:
        os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        return record_golden(args.seed)

    workloads = args.workload or names
    sets: list[dict[str, list]] = [{w: [] for w in workloads} for _ in range(args.sets)]
    for repeat in range(args.repeat):
        for number, runs in enumerate(sets):
            for workload in workloads:
                print(f"run {repeat + 1}/{args.repeat} · set {number} · {workload}",
                      file=sys.stderr, flush=True)
                runs[workload].append(
                    run_child(workload, args.seed, args.seconds, False, args.smoke)
                )
    traced = {}
    if args.trace:
        for workload in workloads:
            print(f"traced · {workload}", file=sys.stderr, flush=True)
            traced[workload] = run_child(workload, args.seed, args.seconds, True, args.smoke)
    report = {
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "sets": sets,
        "traced": traced,
    }
    print_report(report)
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps(report, indent=1) + "\n")
    every_run = [run for runs in sets for rs in runs.values() for run in rs]
    return 1 if failed_runs(every_run + list(traced.values())) else 0


if __name__ == "__main__":
    sys.exit(main())
