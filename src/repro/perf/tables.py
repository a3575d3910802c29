"""Memoized planning tables for the scheduling hot loop.

``planning_job`` historically rebuilt two O(capacity) lookup tables — the
effective-throughput table ``T[x]`` and the best-runnable-size table
``S[x]`` — for *every job on every scheduling event*, each entry costing a
Python-level ``curve.throughput(x)`` call.  Those tables depend only on the
scaling curve and the table width, so this module caches them per curve
instance and hands planning a shared read-only view.

Contract (see ``docs/performance.md``):

- Tables are keyed by ``(curve identity, capacity)``.  A curve whose
  throughput can change over time (e.g. the live-corrected curves of
  :class:`repro.profiles.online.OnlineThroughputModel`) **must** call
  :func:`invalidate_planning_tables` whenever its answers move; the
  online model does this whenever an observation moves a correction.
- Every table set carries a monotonically increasing ``token``.  Downstream
  memoisation (the admission controller's repeat key) records this token
  for each view, so a rebuilt table automatically invalidates every
  dependent cached fill.
- Each table set lazily carries its :class:`LadderPrefix`
  (``PlanningTables.ladder``): the distinct ladder and its constant-slot
  prefix, shared by every planning view of that curve and capacity and
  dropped with the table set, so an invalidation rebuilds them too.
- :func:`planning_cache_disabled` is the paper-literal reference: inside
  the context every lookup recomputes from the curve, bypassing and not
  populating the store.  Scheduling decisions must be identical either way
  (enforced by ``tests/test_perf_equivalence.py``).

The module is dependency-light on purpose (numpy only): both ``repro.core``
and ``repro.profiles`` import it without creating a cycle.
"""

from __future__ import annotations

import itertools
from array import array
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from weakref import WeakKeyDictionary

import numpy as np

from repro.perf import probe
from repro.perf.coherence import coherent, invalidates, keyed

__all__ = [
    "LadderPrefix",
    "PlanningTables",
    "compute_planning_tables",
    "planning_tables_for",
    "invalidate_planning_tables",
    "curve_revision",
    "cache_enabled",
    "planning_cache_disabled",
    "batching_enabled",
    "batched_solver_disabled",
    "tables_global_revision",
    "reset_cache",
]


@dataclass(frozen=True)
class PlanningTables:
    """The per-curve lookup tables the planning algorithms consume.

    Attributes:
        sizes: Candidate GPU-count caps in increasing order.
        throughput_table: ``T[x]`` — effective iterations/sec at ``x`` GPUs
            (monotone non-decreasing, ``T[0] == 0``).  Read-only.
        size_table: ``S[x]`` — GPUs actually used when handed ``x``.
            Read-only.
        token: Monotone build counter; two lookups returning the same token
            are guaranteed to hold identical tables.  Fresh computations
            (cache disabled, or a post-invalidation rebuild) always receive
            a new token, so stale plans can never be reused.
    """

    sizes: tuple[int, ...]
    throughput_table: np.ndarray
    size_table: np.ndarray
    token: int

    @cached_property
    def ladder(self) -> "LadderPrefix":
        """The distinct ladder and its prefix store, shared by every view
        of this table set and dropped with it."""
        return LadderPrefix(self.sizes, self.throughput_table, self.size_table)


def prefix_key(weight: float) -> float:
    """Store key of a run of slots that all weigh ``weight`` (> 0): the
    weight as a plain float.  Equal positive floats have equal bits, so
    two runs with one key add bit-identical increments ``T * weight``."""
    return float(weight)


@coherent(caps="frozen", thr="frozen")
@keyed(_prefix="prefix_key")
class LadderPrefix:
    """The distinct unclamped ladder of one table set, with its prefix.

    ``caps`` keeps the first cap of each run of caps with the same
    runnable size ``S[c]`` (their fills are identical) and ``thr[i]`` is
    ``T[S[caps[i]]]``.  :meth:`prefix` returns, per kept cap, the
    progress of a fill over a run of slots that all weigh ``weight``:
    ``P[0] = thr * weight`` and ``P[k] = P[k-1] + thr * weight``, the
    additions ``np.cumsum`` performs along such a run.  Rows are compact
    ``array('d')`` and grow on demand.  One weight is held at a time: the
    planning grid's slot width, the same at every event unless the grid
    is widened, and a widened width changes with every event, so a
    second entry would never be read again.
    """

    def __init__(
        self, sizes: Sequence[int], throughput_table: np.ndarray, size_table: np.ndarray
    ) -> None:
        sizes_array = np.asarray(sizes, dtype=np.int64)
        runnable = size_table[sizes_array]
        first = np.flatnonzero(np.diff(runnable, prepend=-1))
        self.caps: tuple[int, ...] = tuple(sizes_array[first].tolist())
        self.thr: list[float] = throughput_table[runnable[first]].tolist()
        # No prefix yet: every key is a positive weight, never 0.0.
        self._prefix: tuple[float, list[array]] = (0.0, [])

    def prefix(self, weight: float, length: int) -> list[array]:
        """Per-cap prefix rows over at least ``length`` slots of ``weight``.

        A (re)build or growth counts ``ladder_prefix_builds`` in
        :mod:`repro.perf.probe`.
        """
        key = prefix_key(weight)
        held, rows = self._prefix
        if held == key and len(rows[0]) >= length:
            return rows
        probe.bump("ladder_prefix_builds")
        if held != key:
            rows = [array("d") for _ in self.caps]
            self._prefix = (key, rows)
        have = len(rows[0])
        # Column 0 carries each row's last entry (0.0 for a new row, and
        # 0.0 + x == x), so the cumsum continues the run bit for bit.
        block = np.repeat(
            np.asarray(self.thr, dtype=np.float64)[:, None] * key,
            length - have + 1,
            axis=1,
        )
        block[:, 0] = [row[-1] if have else 0.0 for row in rows]
        grown = np.cumsum(block, axis=1)[:, 1:]
        for row, new in zip(rows, grown):
            row.frombytes(new.tobytes())
        return rows


_token_counter = itertools.count()
_store: "WeakKeyDictionary[object, dict[int, PlanningTables]]" = WeakKeyDictionary()
_revisions: "WeakKeyDictionary[object, int]" = WeakKeyDictionary()
_enabled: bool = True
_batching: bool = True
_global_revision: int = 0


def compute_planning_tables(curve, capacity: int) -> PlanningTables:
    """Build the tables from scratch (always; never consults the store).

    Matches the historical inline computation bit-for-bit: ``T[x]`` is the
    running maximum of ``curve.throughput`` over allowed sizes ``<= x`` and
    ``S[x]`` is the size achieving it (first size on ties).
    """
    sizes = tuple(curve.allowed_sizes(capacity))
    throughput_table = np.zeros(capacity + 1, dtype=np.float64)
    size_table = np.zeros(capacity + 1, dtype=np.int64)
    allowed = set(sizes)
    best_size, best_thr = 0, 0.0
    for x in range(1, capacity + 1):
        if x in allowed:
            thr = curve.throughput(x)
            if thr > best_thr:
                best_size, best_thr = x, thr
        throughput_table[x] = best_thr
        size_table[x] = best_size
    throughput_table.flags.writeable = False
    size_table.flags.writeable = False
    return PlanningTables(
        sizes=sizes,
        throughput_table=throughput_table,
        size_table=size_table,
        token=next(_token_counter),
    )


def planning_tables_for(curve, capacity: int) -> PlanningTables:
    """Memoized planning tables for one ``(curve, capacity)`` pair.

    Lookups are counted in :mod:`repro.perf.probe` as ``tables_hits``,
    ``tables_misses`` and ``tables_bypasses``.
    """
    if not _enabled:
        probe.bump("tables_bypasses")
        return compute_planning_tables(curve, capacity)
    per_curve = _store.get(curve)
    if per_curve is None:
        per_curve = {}
        _store[curve] = per_curve
    tables = per_curve.get(capacity)
    if tables is None:
        probe.bump("tables_misses")
        tables = compute_planning_tables(curve, capacity)
        per_curve[capacity] = tables
    else:
        probe.bump("tables_hits")
    return tables


@invalidates("planning_tables")
def invalidate_planning_tables(curve) -> None:
    """Drop every cached table of one curve (all capacities).

    Call this whenever the curve's ``throughput`` answers may have changed;
    the next lookup rebuilds with a fresh token, which also invalidates any
    downstream plan that recorded the old one.  The curve's *revision* is bumped even if
    no table was cached, so revision-keyed memos elsewhere (e.g. the
    simulator's per-placement rate memo) always see the change.  The
    module-wide :func:`tables_global_revision` counter advances too, so
    whole-set validity checks (the simulator's vectorized rate array) can
    detect *any* curve movement with one integer compare instead of
    re-deriving per-curve revisions.  Dropping a cached entry counts
    ``tables_invalidations`` in :mod:`repro.perf.probe`.
    """
    global _global_revision
    _revisions[curve] = _revisions.get(curve, 0) + 1
    _global_revision += 1
    if _store.pop(curve, None) is not None:
        probe.bump("tables_invalidations")


def tables_global_revision() -> int:
    """Module-wide invalidation counter covering *every* curve.

    Advances whenever :func:`invalidate_planning_tables` or
    :func:`reset_cache` runs.  Memos spanning many curves (one array per
    active set, not per curve) key on this so a single integer compare
    proves no curve moved since the memo was built.
    """
    return _global_revision


def curve_revision(curve) -> int:
    """Monotone per-curve invalidation counter (0 until first invalidation).

    Include this in the key of any memo derived from a curve's throughput:
    the counter changes exactly when :func:`invalidate_planning_tables`
    reports the curve's answers may have moved.
    """
    return _revisions.get(curve, 0)


def cache_enabled() -> bool:
    """Whether memoisation is currently on."""
    return _enabled


@contextmanager
def planning_cache_disabled():
    """Context manager: recompute everything from the curves, no memo.

    This is the paper-literal reference the decision-equivalence tests
    (and any debugging session that suspects a stale cache) run under.
    """
    global _enabled
    previous, _enabled = _enabled, False
    try:
        yield
    finally:
        _enabled = previous


def batching_enabled() -> bool:
    """Whether the ladder-table solvers are currently on.

    With this on (and the caches on), Algorithm 1 runs the admission
    controller's commit walk and Algorithm 2 the chain-native upgrade
    loop, both filling every job with the one production fill, which
    reads unclamped fills off a ``ladder_rows`` table per job.  Turning
    either switch off selects the same paper-literal loop per algorithm
    (Algorithm 1's per-job sequential fill, Algorithm 2's
    rebuild-every-stale-pop loop) on the paper-literal reference scan;
    with only this one off, they run on the cached tables, sharing no
    ladder code with production: the reference the scale-equivalence
    benchmarks compare against (running the fully uncached reference at
    16k GPUs is intractable).  Call sites test both switches.
    """
    return _batching


@contextmanager
def batched_solver_disabled():
    """Context manager: run the paper-literal loops, caches still on.

    The mid/xl-scale decision-digest checks run under this to compare the
    ladder-table solvers against the paper-literal loop of each algorithm
    (per-job reference-scan fills; every stale Algorithm 2 pop rebuilt),
    the same loops :func:`planning_cache_disabled` runs on rebuilt tables.
    Every Algorithm 1 fill is solved cold: the admission controller's
    previous fill is neither read nor stored, so the yardstick repeats no
    fill.
    """
    global _batching
    previous, _batching = _batching, False
    try:
        yield
    finally:
        _batching = previous


@invalidates("planning_tables")
def reset_cache() -> None:
    """Forget every cached table."""
    global _global_revision
    _store.clear()
    _global_revision += 1
