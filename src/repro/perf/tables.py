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
  :func:`invalidate_planning_tables` whenever an observation lands; the
  online model does this automatically.
- Every table set carries a monotonically increasing ``token``.  Downstream
  memoisation (the admission baseline cache) fingerprints jobs by this
  token, so a rebuilt table automatically invalidates every dependent
  cached plan.
- :func:`planning_cache_disabled` is the paper-literal reference: inside
  the context every lookup recomputes from the curve, bypassing and not
  populating the store.  Scheduling decisions must be identical either way
  (enforced by ``tests/test_perf_equivalence.py``).

The module is dependency-light on purpose (numpy only): both ``repro.core``
and ``repro.profiles`` import it without creating a cycle.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass
from weakref import WeakKeyDictionary

import numpy as np

from repro.perf.coherence import invalidates

__all__ = [
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
    "cache_stats",
    "ladder_consts",
    "note_warm_fill",
    "note_batched_walk",
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
            a new token, so stale fingerprints can never collide.
    """

    sizes: tuple[int, ...]
    throughput_table: np.ndarray
    size_table: np.ndarray
    token: int


_token_counter = itertools.count()
_store: "WeakKeyDictionary[object, dict[int, PlanningTables]]" = WeakKeyDictionary()
_revisions: "WeakKeyDictionary[object, int]" = WeakKeyDictionary()
_enabled: bool = True
_batching: bool = True
_global_revision: int = 0
_stats = {
    "hits": 0,
    "misses": 0,
    "bypasses": 0,
    "invalidations": 0,
    "warm_hits": 0,
    "warm_misses": 0,
    "batch_hits": 0,
    "batch_misses": 0,
}


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
    """Memoized planning tables for one ``(curve, capacity)`` pair."""
    if not _enabled:
        _stats["bypasses"] += 1
        return compute_planning_tables(curve, capacity)
    per_curve = _store.get(curve)
    if per_curve is None:
        per_curve = {}
        _store[curve] = per_curve
    tables = per_curve.get(capacity)
    if tables is None:
        _stats["misses"] += 1
        tables = compute_planning_tables(curve, capacity)
        per_curve[capacity] = tables
    else:
        _stats["hits"] += 1
    return tables


@invalidates("planning_tables")
def invalidate_planning_tables(curve) -> None:
    """Drop every cached table of one curve (all capacities).

    Call this whenever the curve's ``throughput`` answers may have changed;
    the next lookup rebuilds with a fresh token, which also invalidates any
    downstream plan fingerprints.  The curve's *revision* is bumped even if
    no table was cached, so revision-keyed memos elsewhere (e.g. the
    simulator's per-placement rate memo) always see the change.  The
    module-wide :func:`tables_global_revision` counter advances too, so
    whole-set validity checks (the simulator's vectorized rate array) can
    detect *any* curve movement with one integer compare instead of
    re-deriving per-curve revisions.
    """
    global _global_revision
    _revisions[curve] = _revisions.get(curve, 0) + 1
    _global_revision += 1
    if _store.pop(curve, None) is not None:
        _stats["invalidations"] += 1


#: Per-(table build, cap) ladder constants for warm-hint verification.
#: Each entry holds ``(sizes, value)`` where ``sizes`` is the build's
#: ladder tuple (kept for identity validation) and ``value`` is
#: ``(S[cap], T[S[cap]], next-lower cap, T[S[below]])`` — or ``None``
#: when the cap is not in that build's ladder.  The values are pure
#: functions of the table build, so entries can never go stale; the
#: bound only exists to keep a pathological run from growing the dict
#: without limit.
_ladder_consts: dict[
    tuple[int, int], tuple[object, tuple[int, float, int, float] | None]
] = {}
_LADDER_CONSTS_LIMIT = 65536


def ladder_consts(
    token: int,
    cap: int,
    sizes: object,
    sizes_arr: np.ndarray,
    size_table: np.ndarray,
    throughput_table: np.ndarray,
) -> tuple[int, float, int, float] | None:
    """Hint-cap constants of one table build, memoized by ``(token, cap)``.

    Returns ``(s_cap, thr_hint, below, thr_below)`` — the GPUs actually
    used at the hinted cap, its constant per-slot throughput, the
    next-lower ladder cap (``0`` when the hint is already the smallest)
    and that cap's throughput — or ``None`` when ``cap`` is not in the
    ladder (a stale hint from a different build).  These are exactly the
    scalars the warm verification derives per call; hoisting them here
    removes a ``searchsorted`` and four table lookups from every
    warm-hinted fill.

    A hit additionally requires the entry's ``sizes`` to be the *same
    object* as the caller's: every view of one memoized table build
    shares the build's ladder tuple, so real tokens always validate,
    while hand-built views that stamp non-unique tokens (test fixtures)
    fail the identity check and recompute instead of reading another
    ladder's constants.  Hand-built views (``token == -1``) and the
    cache-disabled mode always compute fresh.
    """
    memoize = token >= 0 and _enabled
    if memoize:
        key = (token, cap)
        entry = _ladder_consts.get(key)
        if entry is not None and entry[0] is sizes:
            return entry[1]
    idx = int(np.searchsorted(sizes_arr, cap))
    if idx >= sizes_arr.size or int(sizes_arr[idx]) != cap:
        value = None
    else:
        s_cap = int(size_table[cap])
        thr_hint = float(throughput_table[s_cap])
        if idx > 0:
            below = int(sizes_arr[idx - 1])
            thr_below = float(throughput_table[int(size_table[below])])
        else:
            below, thr_below = 0, 0.0
        value = (s_cap, thr_hint, below, thr_below)
    if memoize:
        if len(_ladder_consts) >= _LADDER_CONSTS_LIMIT:
            _ladder_consts.clear()
        _ladder_consts[key] = (sizes, value)
    return value


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
    """Whether the batched multi-job solver layer is currently on.

    The batched solver (see ``repro.core.batch`` and the admission
    controller's ``_walk``) is a separate toggle from the memo switch:
    turning it off while leaving the caches on yields the sequential
    per-job solver, which is the reference the scale-equivalence
    benchmarks compare against (running the fully uncached reference at
    16k GPUs is intractable).
    Call sites must still gate on :func:`cache_enabled` first — the
    cache-disabled reference always routes to the reference scan.
    """
    return _batching


@contextmanager
def batched_solver_disabled():
    """Context manager: solve sequentially per job, caches still on.

    The mid/xl-scale decision-digest checks run under this to compare the
    batched commit walk against the sequential fill it replaced.
    """
    global _batching
    previous, _batching = _batching, False
    try:
        yield
    finally:
        _batching = previous


def cache_stats() -> dict[str, int]:
    """Hit/miss/bypass/invalidation counters (copies; for tests & bench)."""
    return dict(_stats)


def note_warm_fill(hit: bool) -> None:
    """Count one warm-hint fill attempt (verified reuse vs full-scan fallback).

    Warm-started progressive fills (see ``repro.core.admission``) record
    their outcome here so the benchmark can report how often the O(window)
    verification actually short-circuits the 2-D cap scan.
    """
    if hit:
        _stats["warm_hits"] += 1
    else:
        _stats["warm_misses"] += 1


def note_batched_walk(accepts: int, fallbacks: int) -> None:
    """Bulk-record one batched commit walk's fill outcomes.

    Each fast accept is both a verified warm fill and a batch-emitted
    plan; each fallback is a batch miss (its warm outcome is recorded by
    the sequential fill it runs).  One call per walk replaces two counter
    calls per job in the hottest admission loop.
    """
    _stats["warm_hits"] += accepts
    _stats["batch_hits"] += accepts
    _stats["batch_misses"] += fallbacks


@invalidates("planning_tables")
def reset_cache() -> None:
    """Forget every cached table and zero the counters."""
    global _global_revision
    _store.clear()
    _ladder_consts.clear()
    _global_revision += 1
    for key in _stats:
        _stats[key] = 0
