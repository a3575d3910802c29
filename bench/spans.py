"""Layer spans recorded from outside the program, for ``--trace 1`` runs.

The program has no tracing of its own, so the benchmark wraps the public
entry point of each layer for the duration of one replay and restores the
originals afterwards.  Layers take their module's name:

=============  ==============================================================
span prefix    wrapped entry points
=============  ==============================================================
``views``      ``ElasticFlowPolicy.admit`` / ``.allocate`` (repro.core.scheduler)
``baselines``  ``admit`` / ``allocate`` of any other policy (repro.baselines)
``admission``  ``AdmissionController.try_admit`` / ``.plan_shares``
``allocation`` ``repro.core.scheduler.allocate_leftover`` (Algorithm 2)
``placement``  ``PlacementManager.place/resize/release/fail_node/repair_node``
``profiling``  ``OnlineThroughputModel.observe`` (repro.profiles.online)
=============  ==============================================================

Each span records its name, start, end, parent span and request id; a
request is one policy call plus the placement calls that carry out its
decision.  A span's self time is its duration minus its children's, and
the engine's self time is the replay's wall time minus every root span, so
the layers' self times add up to the replay's wall time by construction.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator

from repro.cluster.placement import PlacementManager
from repro.core import scheduler
from repro.core.admission import AdmissionController
from repro.core.scheduler import ElasticFlowPolicy
from repro.errors import PlacementError
from repro.profiles.online import OnlineThroughputModel

__all__ = ["Tracer", "instrumented", "trace_policy", "layer_metrics"]

PLACEMENT_OPS = ("place", "resize", "release", "fail_node", "repair_node")

#: ``tally(counts, args, result, error)``: work counts of one finished call.
Tally = Callable[[Counter, tuple, object, BaseException | None], None]


class Tracer:
    """The spans and work counts of one traced replay, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._request = 0

    def wrap(self, name: str, fn, *, tally: Tally | None = None, request: bool = False):
        """``fn`` wrapped in a span; ``request`` opens a new request id."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if request:
                self._request += 1
            index = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.requests.append(self._request)
            self.ends.append(0.0)
            self._stack.append(index)
            self.starts.append(perf_counter())
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                self.ends[index] = perf_counter()
                self._stack.pop()
                if tally is not None:
                    tally(self.counts, args, result, error)

        return wrapper

    def self_times(self) -> tuple[Counter[str], float]:
        """Self seconds per span name, and the summed root-span seconds."""
        children = [0.0] * len(self.names)
        roots = 0.0
        for index, parent in enumerate(self.parents):
            duration = self.ends[index] - self.starts[index]
            if parent < 0:
                roots += duration
            else:
                children[parent] += duration
        own: Counter[str] = Counter()
        for index, name in enumerate(self.names):
            own[name] += self.ends[index] - self.starts[index] - children[index]
        return own, roots

    def write_jsonl(self, handle, **fields) -> None:
        """One JSON line per span; ``fields`` tag every line."""
        origin = self.starts[0] if self.starts else 0.0
        for index, name in enumerate(self.names):
            record = {
                "name": name,
                "start": self.starts[index] - origin,
                "end": self.ends[index] - origin,
                "parent": self.parents[index],
                "request": self.requests[index],
                **fields,
            }
            handle.write(json.dumps(record) + "\n")


def _rows(key: str, position: int, extra: int = 0) -> Tally:
    """Count the jobs passed in argument ``position`` (plus ``extra``)."""

    def tally(counts, args, result, error):
        counts[key] += len(args[position]) + extra

    return tally


def _accepted(counts, args, result, error) -> None:
    if result is not None and result.admitted:
        counts["admission.accepted"] += 1


def _placement(counts, args, result, error) -> None:
    if isinstance(error, PlacementError):
        counts["placement.failed"] += 1
    elif isinstance(result, tuple):
        counts["placement.migrations"] += len(result[1])


def trace_policy(tracer: Tracer, policy) -> None:
    """Wrap one policy instance's ``admit``/``allocate``; each call is a request."""
    layer = "views" if isinstance(policy, ElasticFlowPolicy) else "baselines"
    policy.admit = tracer.wrap(
        f"{layer}.admit", policy.admit, request=True, tally=_rows(f"{layer}.rows", 1, 1)
    )
    policy.allocate = tracer.wrap(
        f"{layer}.allocate", policy.allocate, request=True, tally=_rows(f"{layer}.rows", 0)
    )


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every class- and module-level layer entry point, then restore."""
    targets = [
        (AdmissionController, "try_admit", "admission.try_admit", _accepted),
        (
            AdmissionController,
            "plan_shares",
            "admission.plan_shares",
            _rows("admission.plan_shares.rows", 1),
        ),
        (
            scheduler,
            "allocate_leftover",
            "allocation.allocate_leftover",
            _rows("allocation.rows", 0),
        ),
        *((PlacementManager, op, f"placement.{op}", _placement) for op in PLACEMENT_OPS),
        (OnlineThroughputModel, "observe", "profiling.observe", None),
    ]
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in targets]
    try:
        for (owner, attr, name, tally), (_, _, original) in zip(targets, originals):
            setattr(owner, attr, tracer.wrap(name, original, tally=tally))
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def layer_metrics(tracers: list[Tracer], wall: float, events: int) -> dict[str, float]:
    """Per-layer work counts and self-time shares of ``wall`` seconds.

    Self time is reported as a share of the traced replays' wall time: the
    shares add up to 1, and a layer that a workload never enters reads 0
    instead of a zero time.
    """
    own: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    counts: Counter[str] = Counter()
    roots = 0.0
    for tracer in tracers:
        times, root = tracer.self_times()
        own.update(times)
        calls.update(tracer.names)
        counts.update(tracer.counts)
        roots += root

    def share(*names: str) -> float:
        return sum(own[name] for name in names) / wall

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    placement = [f"placement.{op}" for op in PLACEMENT_OPS]
    placement_calls = sum(calls[name] for name in placement)
    policy_allocates = calls["views.allocate"] + calls["baselines.allocate"]
    return {
        "engine.self_share": (wall - roots) / wall,
        "engine.events": events,
        "engine.realloc_ratio": ratio(policy_allocates, events),
        "views.self_share": share("views.admit", "views.allocate"),
        "views.rows": counts["views.rows"],
        "admission.try_admit.calls": calls["admission.try_admit"],
        "admission.try_admit.self_share": share("admission.try_admit"),
        "admission.accept_ratio": ratio(
            counts["admission.accepted"], calls["admission.try_admit"]
        ),
        "admission.plan_shares.calls": calls["admission.plan_shares"],
        "admission.plan_shares.self_share": share("admission.plan_shares"),
        "admission.plan_shares.rows": counts["admission.plan_shares.rows"],
        "allocation.calls": calls["allocation.allocate_leftover"],
        "allocation.self_share": share("allocation.allocate_leftover"),
        "allocation.rows": counts["allocation.rows"],
        "placement.calls": placement_calls,
        "placement.self_share": share(*placement),
        "placement.failed_ratio": ratio(counts["placement.failed"], placement_calls),
        "placement.migrations": counts["placement.migrations"],
        "baselines.calls": calls["baselines.admit"] + calls["baselines.allocate"],
        "baselines.self_share": share("baselines.admit", "baselines.allocate"),
        "profiling.observe.calls": calls["profiling.observe"],
        "profiling.observe.self_share": share("profiling.observe"),
    }
