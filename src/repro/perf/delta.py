"""Per-phase perf-regression gate over benchmark reports.

A raw events/sec floor conflates runner speed with code regressions: a
slow CI machine trips it without any change, and a fast one hides a real
2x alg2 regression behind headroom.  This gate compares the *shape* of
the run instead — each phase's share of the cached wall clock
(``phase_s / wall_s``) against a committed baseline snapshot — so a
uniform slowdown from a cold runner passes while one layer quietly
absorbing the budget fails.

Usage::

    python -m repro.perf.delta --report BENCH_quick.json \
        --baseline BENCH_baseline.json              # gate (exit 1 on fail)
    python -m repro.perf.delta --report BENCH_quick.json \
        --baseline BENCH_baseline.json --write-baseline

A phase fails when its fraction exceeds ``baseline * (1 + tolerance) +
epsilon``.  The multiplicative tolerance (default 20%) is the regression
budget; the small absolute epsilon keeps tiny phases (a 1% ``other``
residual) from failing on noise that is far below measurement
resolution.  Phases present in the report but absent from the baseline
are ignored (a new phase key is a schema change, caught by the bench
smoke test, not a regression); phases present in the baseline but
missing from the report fail loudly.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

__all__ = ["check_phases", "extract_baseline", "main"]

#: Multiplicative headroom on each phase's wall-clock share.
DEFAULT_TOLERANCE = 0.20
#: Absolute slack (in fraction-of-wall units) below noise resolution.
DEFAULT_EPSILON = 0.02

BASELINE_SCHEMA = 1


def _cached_metrics(report: dict[str, Any]) -> dict[str, Any]:
    try:
        metrics = report["end_to_end"]["cached"]
    except KeyError as exc:
        raise ValueError(f"report missing end_to_end.cached: {exc}") from exc
    if "phases" not in metrics or "wall_s" not in metrics:
        raise ValueError("report's cached metrics lack phases/wall_s")
    return metrics


def _fractions(metrics: dict[str, Any]) -> dict[str, float]:
    wall = float(metrics["wall_s"])
    if wall <= 0.0:
        raise ValueError(f"non-positive wall_s: {wall}")
    return {
        name: float(seconds) / wall
        for name, seconds in metrics["phases"].items()
    }


def _report_fractions(report: dict[str, Any]) -> dict[str, float]:
    """All gated fractions: per-phase shares plus micro-bench pseudo-shares.

    The buddy micro-bench rides along as ``buddy_bench`` — its wall time
    over its fixed calibration loop (``calibration_s``).  Dividing two
    same-process timings keeps the runner-speed immunity the phase
    fractions have, so a buddy hot-path regression trips the gate without
    a raw ops/sec floor, and the ratio does not move when the end-to-end
    run speeds up.  The key is optional on both sides: old baselines
    simply never gate it, and scales that skip the micro benches
    (mid/xl) omit it from reports.
    """
    fractions = _fractions(_cached_metrics(report))
    buddy = report.get("buddy")
    if buddy is not None:
        fractions["buddy_bench"] = float(buddy["wall_s"]) / float(
            buddy["calibration_s"]
        )
    return fractions


def extract_baseline(report: dict[str, Any]) -> dict[str, Any]:
    """Distill a report into the committed baseline snapshot.

    The absolute numbers (wall, events/sec) ride along for human
    context; only ``fractions`` participates in the gate.
    """
    metrics = _cached_metrics(report)
    return {
        "schema": BASELINE_SCHEMA,
        "scale": report.get("scale"),
        "seed": report.get("seed"),
        "wall_s": round(float(metrics["wall_s"]), 4),
        "events_per_sec": round(float(metrics["events_per_sec"]), 2),
        "fractions": {
            name: round(value, 6)
            for name, value in sorted(_report_fractions(report).items())
        },
    }


def check_phases(
    report: dict[str, Any],
    baseline: dict[str, Any],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    epsilon: float = DEFAULT_EPSILON,
) -> list[str]:
    """Return human-readable failure lines; empty means the gate passes."""
    if baseline.get("schema") != BASELINE_SCHEMA:
        return [
            f"baseline schema {baseline.get('schema')!r} != "
            f"{BASELINE_SCHEMA}; regenerate with --write-baseline"
        ]
    current = _report_fractions(report)
    failures = []
    for name, base in sorted(baseline["fractions"].items()):
        if name not in current:
            failures.append(f"phase {name!r} missing from report")
            continue
        limit = base * (1.0 + tolerance) + epsilon
        if current[name] > limit:
            failures.append(
                f"phase {name!r} regressed: {current[name]:.3f} of wall "
                f"vs baseline {base:.3f} (limit {limit:.3f})"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.delta", description=__doc__
    )
    parser.add_argument("--report", required=True, help="bench report JSON")
    parser.add_argument(
        "--baseline", required=True, help="committed baseline JSON"
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="regenerate the baseline from the report instead of gating",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE
    )
    parser.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    args = parser.parse_args(argv)

    with open(args.report) as handle:
        report = json.load(handle)

    if args.write_baseline:
        baseline = extract_baseline(report)
        with open(args.baseline, "w") as handle:
            json.dump(baseline, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote baseline {args.baseline}: {baseline['fractions']}")
        return 0

    with open(args.baseline) as handle:
        baseline = json.load(handle)
    failures = check_phases(
        report, baseline, tolerance=args.tolerance, epsilon=args.epsilon
    )
    if failures:
        for line in failures:
            print(f"FAIL: {line}", file=sys.stderr)
        return 1
    current = _report_fractions(report)
    shares = ", ".join(
        f"{name}={current[name]:.3f}" for name in sorted(current)
    )
    print(f"perf-delta gate passed ({shares})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
