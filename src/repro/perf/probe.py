"""Per-event phase timing for the scheduling hot loop.

The benchmark harness has always timed whole events (the ``_dispatch``
seam in ``repro.perf.bench``); this module adds *phase attribution* inside
one event — planning-view construction, Algorithm 1, Algorithm 2, and the
engine's own bookkeeping — so a perf regression (or win) can be pinned to
a layer instead of read off an aggregate.

The probe is dormant by default: ``tick()`` returns ``0.0`` and ``lap()``
does nothing until a :class:`PhaseRecorder` is installed, so the
instrumented code paths (``ElasticFlowPolicy.allocate``,
``Simulator._reallocate``) pay two no-op function calls per phase and
nothing else.  The benchmark installs a recorder around each simulated
event and reads back the per-phase split::

    recorder = PhaseRecorder()
    with probe.recording(recorder):
        ...                      # run the simulation
    recorder.events              # one {phase: seconds} dict per event

Phases are purely additive wall-clock buckets; time not attributed to a
named phase is the residual the harness reports as ``other``.

Alongside the timing probe this module keeps a flat operation-counter
registry (:func:`bump` / :func:`counters` / :func:`reset_counters`).
Unlike the recorder, counters are *always on*: one dict increment per
counted operation is cheap at the granularity being counted (heap pops
and applies in Algorithm 2, buddy allocate/free calls), and an
always-on count means unit tests and the bench harness read the same
numbers.  Hot inner loops accumulate locally and flush once via
:func:`add_counters`.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

__all__ = [
    "PhaseRecorder",
    "recording",
    "install",
    "uninstall",
    "tick",
    "lap",
    "bump",
    "add_counters",
    "counters",
    "reset_counters",
]

#: Canonical phase names, in hot-loop order (documentation + report order).
PHASES = ("views", "alg1", "alg2", "engine")

_recorder: "PhaseRecorder | None" = None


class PhaseRecorder:
    """Accumulates per-phase seconds, grouped into events.

    Attributes:
        events: One ``{phase: seconds}`` dict per completed event, in
            dispatch order.  Phases that never ran in an event are simply
            absent from its dict.
    """

    def __init__(self) -> None:
        self.events: list[dict[str, float]] = []
        self._current: dict[str, float] | None = None

    def begin_event(self) -> None:
        """Open a fresh per-event bucket (closing any stragglers)."""
        self._current = {}

    def end_event(self) -> dict[str, float]:
        """Close the current event's bucket and archive it."""
        current = self._current if self._current is not None else {}
        self.events.append(current)
        self._current = None
        return current

    def add(self, phase: str, seconds: float) -> None:
        if self._current is None:
            # Phase work outside an event bracket (e.g. admission during
            # a unit test) still lands somewhere inspectable.
            self._current = {}
        self._current[phase] = self._current.get(phase, 0.0) + seconds


def install(recorder: PhaseRecorder) -> None:
    """Route subsequent ``tick``/``lap`` calls into ``recorder``."""
    global _recorder
    _recorder = recorder


def uninstall() -> None:
    """Return the probe to its dormant (no-op) state."""
    global _recorder
    _recorder = None


@contextmanager
def recording(recorder: PhaseRecorder):
    """Context manager: install ``recorder`` for the duration of the block."""
    install(recorder)
    try:
        yield recorder
    finally:
        uninstall()


def active() -> bool:
    """Whether a recorder is currently installed."""
    return _recorder is not None


def begin_event() -> None:
    """Open an event bucket on the installed recorder (no-op when dormant)."""
    if _recorder is not None:
        _recorder.begin_event()


def end_event() -> dict[str, float]:
    """Close the event bucket (no-op returning ``{}`` when dormant)."""
    if _recorder is not None:
        return _recorder.end_event()
    return {}


# --------------------------------------------------------------- counters
_counters: dict[str, int] = {}


def bump(name: str, n: int = 1) -> None:
    """Increment the named operation counter by ``n``."""
    _counters[name] = _counters.get(name, 0) + n


def add_counters(values: dict[str, int]) -> None:
    """Merge a locally accumulated counter dict (one flush per hot call)."""
    for name, n in values.items():
        if n:
            _counters[name] = _counters.get(name, 0) + n


def counters() -> dict[str, int]:
    """Snapshot of all operation counters, sorted by name."""
    return {name: _counters[name] for name in sorted(_counters)}


def reset_counters() -> None:
    """Zero every operation counter (bench harness calls this per run)."""
    _counters.clear()


def tick() -> float:
    """A phase start mark — ``perf_counter()`` while recording, else 0.0."""
    if _recorder is not None:
        return perf_counter()
    return 0.0


def lap(phase: str, start: float) -> float:
    """Attribute the time since ``start`` to ``phase``; returns a new mark.

    Dormant probes return ``0.0`` without reading the clock, so chained
    ``start = lap(...)`` calls cost two predicted branches per phase.
    """
    if _recorder is None:
        return 0.0
    now = perf_counter()
    _recorder.add(phase, now - start)
    return now
