"""Admission control via Minimum Satisfactory Share (paper Section 4.1).

The *Minimum Satisfactory Share* of a job is the least resource plan that
still meets its deadline, given the shares already promised to jobs with
earlier deadlines.  Algorithm 1 of the paper computes it by progressive
filling: sort jobs by deadline, then for each job raise a GPU-count cap
``j`` until the iterations achievable before the deadline — using at most
``j`` GPUs per slot and never more than the slot's leftover capacity —
reach the job's remaining work.  A new job is admitted only if every
admitted job (including the newcomer) can still be satisfied.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.batch import WarmRowBatch
from repro.core.job import Job
from repro.core.plan import Ledger
from repro.core.slots import SlotGrid
from repro.errors import ConfigurationError
from repro.numeric import EPS
from repro.perf.coherence import coherent, keyed, mutates
from repro.perf import probe
from repro.perf.tables import (
    batching_enabled,
    cache_enabled,
    ladder_consts,
    note_batched_walk,
    note_warm_fill,
    planning_tables_for,
    tables_global_revision,
)
from repro.profiles.throughput import ScalingCurve

__all__ = [
    "PlanningJob",
    "planning_job",
    "progressive_filling",
    "AdmissionResult",
    "AdmissionController",
]

_EPS = EPS  # the shared numeric tolerance (repro.numeric)


@coherent(
    remaining_iterations="planning_frame",
    deadline="planning_frame",
    weights="planning_frame",
    throughput_table="frozen",
    size_table="frozen",
    sizes="frozen",
    best_effort="frozen",
    tables_token="frozen",
)
@dataclass
class PlanningJob:
    """Everything the planning algorithms need to know about one job.

    Table-identity state (tables, sizes, token) is declared *frozen*
    coherent state: downstream fill fingerprints hash it via
    ``tables_token``, so mutating it after construction would silently
    desynchronise cached plans — a view is rebuilt, never patched, when
    its tables change.  The event-dependent planning inputs (remaining
    work, padded deadline, weight row) belong to the ``planning_frame``
    dependency: the persistent planning frame
    (``repro.core.scheduler._PlanningFrame``) rewrites them in place on
    every refresh through its declared mutator, which re-seeds the
    per-view window memo in the same step so no derived state can
    survive the inputs it was derived from.  Everywhere else these
    fields are read-only.  Only ``degraded`` and ``min_share_plan`` are
    free mutable working state.

    Attributes:
        job_id: The job's identifier.
        remaining_iterations: Work left, possibly inflated by a safety margin.
        deadline: Absolute deadline (``inf`` for best-effort jobs).
        weights: Usable seconds per slot before the deadline.
        throughput_table: ``T[x]`` — iterations/sec when handed ``x`` GPUs.
        size_table: ``S[x]`` — GPUs actually used when handed ``x``.
        sizes: Candidate GPU-count caps in increasing order.
        best_effort: Whether the job is exempt from admission control.
        tables_token: Build token of the memoized planning tables this view
            was derived from (see :mod:`repro.perf.tables`); ``-1`` for
            hand-built views.  Fingerprint-based plan caching is skipped
            whenever any participating job carries ``-1``.
        degraded: Set by the planner when the job's deadline can no longer
            be met (e.g. it was admitted earlier and fell behind).  Degraded
            jobs lose their reservation and are served from leftovers like
            best-effort jobs — the paper's soft-deadline behaviour
            (Section 4.4): admitted feasible jobs keep their guarantee,
            everything else finishes as early as possible.
    """

    job_id: str
    remaining_iterations: float
    deadline: float
    weights: np.ndarray
    throughput_table: np.ndarray
    size_table: np.ndarray
    sizes: Sequence[int]
    best_effort: bool = False
    tables_token: int = -1
    degraded: bool = False
    min_share_plan: np.ndarray | None = field(default=None, repr=False)

    def progress_of(self, plan: np.ndarray) -> float:
        """Iterations achieved by a plan before this job's deadline.

        Slots past the usable window carry zero weight, so the window
        holds every nonzero term.  The sum runs over the window on every
        path, the cache-disabled reference included: ``np.sum`` reduces
        pairwise in blocks whose boundaries depend on the array length, so
        summing the same terms over the full horizon can round differently
        and flip an Algorithm 2 priority comparison.
        """
        w = self.window(0)
        return float((self.throughput_table[plan[:w]] * self.weights[:w]).sum())

    def gpu_seconds_of(self, plan: np.ndarray) -> float:
        """GPU-time a plan consumes within this job's usable window.

        Summed over the window on every path (see :meth:`progress_of`).
        """
        w = self.window(0)
        return float((plan[:w] * self.weights[:w]).sum())

    def window(self, start_slot: int) -> int:
        """Length of the usable window from ``start_slot``.

        The window runs up to the job's last nonzero weight — beyond it no
        slot can contribute progress, so every planning decision is a
        function of capacity inside the window only.  Memoized per view
        (the hot loops ask for the same window thousands of times) unless
        the planning cache is disabled, in which case it is recomputed
        fresh like everything else under the escape hatch.
        """
        if not cache_enabled():
            nonzero = np.flatnonzero(self.weights[start_slot:])
            return int(nonzero[-1]) + 1 if nonzero.size else 0
        windows = self.__dict__.get("_windows")
        if windows is None:
            windows = self.__dict__["_windows"] = {}
        w = windows.get(start_slot)
        if w is None:
            nonzero = np.flatnonzero(self.weights[start_slot:])
            w = int(nonzero[-1]) + 1 if nonzero.size else 0
            windows[start_slot] = w
        return w

    def next_size_after(self, current: int) -> int | None:
        """Smallest allowed size strictly above ``current`` (None at the top)."""
        for size in self.sizes:
            if size > current:
                return size
        return None

    def sizes_array(self) -> np.ndarray:
        """``sizes`` as an int64 array, built once per view (hot-loop use)."""
        arr = self.__dict__.get("_sizes_array")
        if arr is None:
            arr = np.asarray(self.sizes, dtype=np.int64)
            self.__dict__["_sizes_array"] = arr
        return arr


def planning_job(
    job: Job,
    curve: ScalingCurve,
    grid: SlotGrid,
    capacity: int,
    *,
    safety_margin: float = 0.0,
    deadline_padding_s: float = 0.0,
) -> PlanningJob:
    """Build the planning view of a runtime job.

    Args:
        job: Runtime job state (its remaining iterations are what is planned).
        curve: The job's scaling curve under compact placement.
        grid: Current planning grid.
        capacity: Cluster GPU count (table width).
        safety_margin: Fraction by which to inflate remaining work so that
            scaling overheads cannot silently break the deadline guarantee.
        deadline_padding_s: Seconds subtracted from the deadline during
            planning — a time-shaped allowance for the per-event
            checkpoint/restore stalls the executor charges.  The true
            deadline still decides whether the job ultimately met it.
    """
    if safety_margin < 0:
        raise ConfigurationError(f"safety_margin must be >= 0, got {safety_margin}")
    if deadline_padding_s < 0:
        raise ConfigurationError(
            f"deadline_padding_s must be >= 0, got {deadline_padding_s}"
        )
    tables = planning_tables_for(curve, capacity)
    deadline = job.spec.effective_deadline
    planning_deadline = deadline
    if not math.isinf(deadline) and deadline_padding_s:
        # Scale-events (and hence stalls) accrue over a job's lifetime, so
        # the allowance is proportional to the time left, capped at the
        # configured maximum — short jobs are not over-penalised.
        padding = min(deadline_padding_s, 0.1 * max(0.0, deadline - grid.origin))
        planning_deadline = deadline - padding
    return PlanningJob(
        job_id=job.job_id,
        remaining_iterations=job.remaining_iterations * (1.0 + safety_margin),
        deadline=planning_deadline,
        weights=grid.weights_until(planning_deadline),
        throughput_table=tables.throughput_table,
        size_table=tables.size_table,
        sizes=tables.sizes,
        best_effort=job.spec.best_effort,
        tables_token=tables.token,
    )


def _deadline_order(info: PlanningJob) -> tuple[float, str]:
    """Sort key of the Algorithm 1 deadline walk (EDF, ties broken by id)."""
    return (info.deadline, info.job_id)


def progressive_filling(
    info: PlanningJob,
    available: np.ndarray,
    *,
    start_slot: int = 0,
    head: np.ndarray | None = None,
    warm_hints: dict[tuple[str, int], int] | None = None,
) -> np.ndarray | None:
    """Compute the minimum satisfactory share of one job (Algorithm 1 inner loop).

    Raises the per-slot GPU cap through ``info.sizes`` until the achievable
    progress before the deadline covers the requirement; within a cap the
    job takes ``min(cap, leftover capacity)`` GPUs in every usable slot,
    rounded down to a size it can actually run at.  The returned plan is
    trimmed after the completion slot so later slots stay free for others.

    Two implementations share this contract: a straightforward reference
    scan that rebuilds the per-slot contribution cap by cap in a Python
    loop, and a fast path that evaluates every ``(cap, slot)`` pair in one
    vectorized pass over the job's usable window.  Both select the first
    cap whose sequential cumulative progress covers the requirement — the
    fast path's row-wise ``cumsum`` performs the identical additions in
    the identical order — so both produce bit-identical plans;
    :func:`repro.perf.tables.planning_cache_disabled` switches to the
    reference scan (this is what the equivalence regression and the
    benchmark's decision digest verify end to end).

    ``warm_hints`` adds a third, still bit-identical route: the dict maps
    ``(job_id, start_slot)`` to the cap the previous fill of this job
    selected.  Consecutive fills overwhelmingly pick the same cap, so the
    fast path first *verifies* the hinted cap with two O(window) row
    evaluations — the hinted row must be feasible and the next-lower cap
    infeasible — and only falls back to the full 2-D scan when the
    verification fails.  Minimality of the verified row follows from
    monotonicity: per-slot takes ``min(cap, available)`` are non-decreasing
    in the cap and the tables are monotone, so row feasibility is monotone
    in the cap and "feasible here, infeasible one below" pins the exact row
    ``argmax`` would have picked.  The verified row's plan is emitted by
    the same code as the scanned row's, from the same sequential cumulative
    sums, so the plan is bit-identical either way.  The dict is updated in
    place with the cap actually chosen (hints are advisory state — see the
    ``verified`` coherence class in :mod:`repro.perf.coherence`).

    Args:
        info: Planning view of the job.
        available: Leftover GPUs per slot *excluding* this job's own plan.
        start_slot: First slot the fill may touch (Algorithm 2 re-fills
            tails with ``start_slot=1``).
        head: Fixed allocations for slots before ``start_slot``; their
            progress counts toward the requirement.
        warm_hints: Previous cap choices keyed by ``(job_id, start_slot)``;
            mutated in place.  Ignored (left untouched) on the
            cache-disabled reference path.

    Returns:
        A full-horizon plan, or ``None`` when no cap satisfies the deadline.
    """
    if not cache_enabled():
        return _progressive_filling_reference(
            info, available, start_slot=start_slot, head=head
        )
    horizon = len(available)
    plan = np.zeros(horizon, dtype=np.int64)
    base_progress = 0.0
    if head is not None:
        plan[:start_slot] = head[:start_slot]
        if start_slot == 1:
            # Algorithm 2's tail refills fix exactly one head slot; the
            # single product is the same multiplication the vector
            # expression below performs, minus the array round trip.
            base_progress = float(info.throughput_table[plan[0]]) * float(
                info.weights[0]
            )
        else:
            base_progress = float(
                (
                    info.throughput_table[plan[:start_slot]]
                    * info.weights[:start_slot]
                ).sum()
            )
    required = info.remaining_iterations - base_progress
    if required <= _EPS:
        return plan

    sizes = info.sizes
    if not sizes:
        return None
    throughput_table = info.throughput_table
    size_table = info.size_table

    # Everything the fill decides depends only on capacity inside the
    # *usable window* — the slots up to the last nonzero weight.  Later
    # slots contribute no progress and are never written (the completion
    # slot always lands inside the window, because the progress crossing
    # happens at a slot with a nonzero contribution), so all vector work
    # below runs on window-length slices: zero-weight tails add exact
    # zeros to every cumulative sum, so the shortened arrays produce
    # bit-identical decisions while the horizon may be an order of
    # magnitude longer than the window.
    usable = info.window(start_slot)
    if usable == 0:
        return None
    tail_weights = info.weights[start_slot : start_slot + usable]
    tail_available = np.maximum(available[start_slot : start_slot + usable], 0)
    threshold = required - _EPS

    hint_key = None
    if warm_hints is not None:
        hint_key = (info.job_id, start_slot)
        warm = _verify_warm_row(
            info, warm_hints.get(hint_key), tail_available, tail_weights, threshold
        )
        note_warm_fill(warm is not None)
        if warm is not None:
            x, progress = warm
            return _emit_plan(
                info, plan, x, progress, required, threshold, tail_weights, start_slot
            )

    # Evaluate every (cap, slot) pair in one vectorized pass: row `i` of
    # `progress` is exactly the cumulative-progress array the reference
    # scan builds for cap `sizes[i]` (cumsum along an axis performs the
    # same additions in the same sequential order), so selecting the first
    # feasible row reproduces the reference's cap choice, completion slot,
    # and plan bit for bit — without a Python-level loop over caps.
    x2d = size_table[np.minimum.outer(info.sizes_array(), tail_available)]
    progress2d = np.cumsum(throughput_table[x2d] * tail_weights, axis=1)
    feasible = progress2d[:, -1] >= threshold
    if not feasible.any():
        if hint_key is not None:
            # A hint for an infeasible fill can never verify; drop it so
            # repeated failures skip the two wasted row evaluations.
            warm_hints.pop(hint_key, None)
        return None
    row = int(np.argmax(feasible))
    if hint_key is not None:
        warm_hints[hint_key] = sizes[row]
    return _emit_plan(
        info,
        plan,
        x2d[row],
        progress2d[row],
        required,
        threshold,
        tail_weights,
        start_slot,
    )


def _verify_warm_row(
    info: PlanningJob,
    cap: int | None,
    tail_available: np.ndarray,
    tail_weights: np.ndarray,
    threshold: float,
) -> tuple[np.ndarray | int, np.ndarray] | None:
    """Check a hinted cap in O(window); returns its ``(x, progress)`` row.

    The hint verifies when its row is feasible and the next-lower cap's row
    is not — by cap-monotonicity of per-slot progress that makes it exactly
    the first feasible row of the full scan.  Feasibility totals come from
    the *sequential* cumulative sum (never ``np.sum``, whose pairwise
    reduction could round a boundary comparison the other way), so the
    accept/reject decision matches the 2-D scan bit for bit.
    """
    if cap is None:
        return None
    consts = ladder_consts(
        info.tables_token,
        cap,
        info.sizes,
        info.sizes_array(),
        info.size_table,
        info.throughput_table,
    )
    if consts is None:
        return None  # stale hint from a different table build
    s_cap, thr_hint, below, thr_below = consts
    if batching_enabled() and int(tail_available.min()) >= cap:
        # Unclamped window: every per-slot take is exactly ``cap``, so both
        # rows are constant-throughput rows — the same scalar multiplied
        # into the same weights, summed by the same sequential cumsum as
        # the general expressions below, minus the clamp and two table
        # gathers per row.
        progress = np.cumsum(thr_hint * tail_weights)
        if progress[-1] < threshold:
            return None
        if below:
            if np.cumsum(thr_below * tail_weights)[-1] >= threshold:
                return None
        return s_cap, progress
    x = info.size_table[np.minimum(cap, tail_available)]
    progress = np.cumsum(info.throughput_table[x] * tail_weights)
    if progress[-1] < threshold:
        return None
    if below:
        x_below = info.size_table[np.minimum(below, tail_available)]
        total_below = np.cumsum(info.throughput_table[x_below] * tail_weights)[-1]
        if total_below >= threshold:
            return None  # a smaller cap suffices: the hint is not minimal
    return x, progress


def _emit_plan(
    info: PlanningJob,
    plan: np.ndarray,
    x: np.ndarray | int,
    progress: np.ndarray,
    required: float,
    threshold: float,
    tail_weights: np.ndarray,
    start_slot: int,
) -> np.ndarray:
    """Write the selected cap's row into ``plan`` (shared by scan and warm paths).

    ``x`` may be a scalar: an unclamped fill takes the same size in every
    slot, so the constant stands in for the per-slot row (the broadcast
    assignment writes the identical values the array would have held).
    """
    done = int(np.searchsorted(progress, threshold))
    if isinstance(x, np.ndarray):
        plan[start_slot : start_slot + done + 1] = x[: done + 1]
        x_done = int(x[done])
    else:
        plan[start_slot : start_slot + done + 1] = x
        x_done = int(x)
    # Shave the completion slot to the smallest size that still finishes
    # the residual work: the selected cap over-provisions the final slot,
    # and the spare GPUs may be exactly what a later-deadline job needs.
    earlier = float(progress[done - 1]) if done > 0 else 0.0
    residual = required - earlier
    final_weight = float(tail_weights[done])
    if final_weight > 0:
        for size in info.sizes:
            if size > x_done:
                break
            if info.throughput_table[size] * final_weight >= residual - _EPS:
                plan[start_slot + done] = size
                break
    return plan


def _progressive_filling_reference(
    info: PlanningJob,
    available: np.ndarray,
    *,
    start_slot: int = 0,
    head: np.ndarray | None = None,
) -> np.ndarray | None:
    """The straightforward Algorithm 1 inner loop: full rebuild per cap.

    This is the pre-fast-path implementation, kept verbatim as the
    behavioural yardstick: the cache-disabled escape hatch routes here, and
    the equivalence tests assert the fast scan reproduces its decisions
    bit for bit.
    """
    horizon = len(available)
    plan = np.zeros(horizon, dtype=np.int64)
    base_progress = 0.0
    if head is not None:
        plan[:start_slot] = head[:start_slot]
        base_progress = float(
            np.sum(
                info.throughput_table[plan[:start_slot]] * info.weights[:start_slot]
            )
        )
    required = info.remaining_iterations - base_progress
    if required <= _EPS:
        return plan

    tail_available = np.maximum(available[start_slot:], 0)
    tail_weights = info.weights[start_slot:]
    for cap in info.sizes:
        x = info.size_table[np.minimum(cap, tail_available)]
        progress = np.cumsum(info.throughput_table[x] * tail_weights)
        if progress[-1] >= required - _EPS:
            done = int(np.searchsorted(progress, required - _EPS))
            plan[start_slot : start_slot + done + 1] = x[: done + 1]
            earlier = float(progress[done - 1]) if done > 0 else 0.0
            residual = required - earlier
            final_weight = float(tail_weights[done])
            if final_weight > 0:
                for size in info.sizes:
                    if size > int(x[done]):
                        break
                    if info.throughput_table[size] * final_weight >= residual - _EPS:
                        plan[start_slot + done] = size
                        break
            return plan
    return None


@dataclass
class AdmissionResult:
    """Outcome of running Algorithm 1 over a job set.

    Attributes:
        admitted: Whether the candidate (if any) can be admitted.
        plans: Minimum satisfactory share per job id (only when feasible).
        ledger: Occupancy ledger pre-loaded with those plans.
        infeasible_job: The first job whose deadline could not be met.
        degraded: Jobs whose deadlines are unmeetable; they hold zero
            reservation and run from leftovers (Section 4.4 soft handling).
    """

    admitted: bool
    plans: dict[str, np.ndarray]
    ledger: Ledger
    infeasible_job: str | None = None
    degraded: set[str] = field(default_factory=set)


@dataclass
class _RetainedFill:
    """The previous soft fill, kept for the event-delta replanning path.

    Attributes:
        grid_key: ``(origin, slot_seconds, horizon)`` of the grid the fill
            ran on — a delta is only attempted on the identical grid.
        order: The SLO jobs in fill order, each as
            ``(deadline, job_id, remaining_iterations, tables_token)``.
        plans: Plan per SLO job id (frozen arrays, shared by reference with
            the ledger the fill produced).
        degraded: SLO jobs whose deadlines were unmeetable in that fill.
    """

    grid_key: tuple[float, float, int]
    order: list[tuple[float, str, float, int]]
    plans: dict[str, np.ndarray]
    degraded: frozenset[str]


@keyed(_fill_cache="_fingerprint", _retained="_fingerprint")
@coherent(_warm_hints="verified")
class AdmissionController:
    """Algorithm 1: deadline-ordered progressive filling over all jobs.

    The controller memoizes complete ``plan_shares`` fills (soft mode only)
    keyed by a fingerprint of the participating jobs and the grid: on every
    scheduling event the policy runs Algorithm 1 two to three times over
    the identical job set (admission baseline, admission trial, then the
    allocation pass), and all but the first are replayed from the cache.
    Fingerprints include each job's planning-table token, so a throughput
    correction (online profiling) automatically invalidates dependent
    fills.  The cache is bypassed entirely while
    :func:`repro.perf.tables.planning_cache_disabled` is active or when any
    job carries a hand-built table (token ``-1``).

    Memo misses run the batched commit walk (:meth:`_walk`), which
    reuses plans from ``_retained`` — the previous soft fill, same
    ``_fingerprint`` key discipline — when the next fill runs on the same
    grid.  ``_warm_hints`` remembers the cap each ``(job_id, start_slot)``
    fill chose last time, letting :func:`progressive_filling` verify
    instead of scan (``verified`` coherence: every hint is re-checked at
    use, so staleness costs time, never correctness);
    :meth:`prune_warm_hints` bounds the dict on long traces.

    Args:
        capacity: Number of GPUs in the cluster.
    """

    #: Bound on remembered fills; LRU-evicted beyond this.
    FILL_CACHE_LIMIT = 128

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._fill_cache: OrderedDict[tuple, tuple] = OrderedDict()
        self._retained: _RetainedFill | None = None
        self._warm_hints: dict[tuple[str, int], int] = {}
        # Event-scoped row store keyed (job, cap, tables token); see
        # :meth:`_event_batch_for`.  Lookups re-check the window length.
        self._event_batch: WarmRowBatch | None = None
        self._event_rows: dict[tuple[str, int, int], tuple[int, int, int]] = {}
        self._event_key: tuple[float, float, int, int] | None = None
        self.fill_cache_hits = 0
        self.fill_cache_misses = 0
        self.delta_hits = 0
        self.delta_reuses = 0
        self.delta_refills = 0
        self.delta_fast_accepts = 0

    @property
    def warm_hints(self) -> dict[tuple[str, int], int]:
        """The advisory cap-hint store, shared with Algorithm 2's refills."""
        return self._warm_hints

    def _event_batch_for(self, grid: SlotGrid) -> WarmRowBatch:
        """The event-scoped row batch, reset when the grid or tables move.

        Within one scheduling event the grid origin and the planning-table
        revision are fixed, so a job's constant-throughput rows — functions
        of (usable-window weights, hinted cap's ladder constants) only —
        are identical across the admission baseline, the trial delta and
        the allocation fill.  Sharing one append-only
        :class:`~repro.core.batch.WarmRowBatch` across those fills solves
        each row once per event instead of once per fill.
        """
        key = (
            grid.origin,
            grid.slot_seconds,
            grid.horizon,
            tables_global_revision(),
        )
        batch = self._event_batch
        if self._event_key != key or batch is None:
            batch = WarmRowBatch()
            self._event_key = key
            self._event_batch = batch
            self._event_rows = {}
        return batch

    @mutates("_warm_hints")
    def prune_warm_hints(self, live_ids: set[str]) -> int:
        """Evict cap hints of jobs no longer in the queue; returns the count.

        Hints are advisory (``verified`` coherence: every entry is
        re-checked against ground truth at use), so eviction can never
        change a decision — this only bounds the dict on long traces,
        where completed and rejected jobs would otherwise leave their
        ``(job_id, start_slot)`` entries behind forever.
        """
        stale = [key for key in self._warm_hints if key[0] not in live_ids]
        for key in stale:
            del self._warm_hints[key]
        return len(stale)

    # ------------------------------------------------------------- caching
    def _fingerprint(
        self, infos: list[PlanningJob], grid: SlotGrid
    ) -> tuple | None:
        """Hashable identity of one fill, or ``None`` when uncacheable."""
        jobs = []
        for info in infos:
            if info.tables_token < 0:
                return None
            jobs.append(
                (
                    info.job_id,
                    info.remaining_iterations,
                    info.deadline,
                    info.best_effort,
                    info.tables_token,
                )
            )
        return (
            grid.origin,
            grid.slot_seconds,
            grid.horizon,
            tuple(sorted(jobs)),
        )

    @mutates("Ledger._plans", "Ledger._used")
    def _replay(
        self, infos: list[PlanningJob], grid: SlotGrid, cached: tuple
    ) -> AdmissionResult:
        """Reconstruct a fill from the cache, including info side effects.

        Cached plans *and* the cached occupancy vector are frozen arrays,
        so the replay shares them by reference — one ``load_plans`` bulk
        restore, no per-job column summation (the ledger's mutators rebind
        ``_used`` instead of writing in place, so adopting the shared
        read-only vector is safe even though Algorithm 2 edits the ledger
        afterwards).
        """
        admitted, plans, infeasible, degraded, used = cached
        out_plans: dict[str, np.ndarray] = {}
        for info in infos:
            plan = plans[info.job_id]
            info.degraded = info.job_id in degraded
            info.min_share_plan = plan
            out_plans[info.job_id] = plan
        ledger = Ledger(self.capacity, grid.horizon)
        ledger.load_plans(out_plans, used)
        return AdmissionResult(
            admitted=admitted,
            plans=out_plans,
            ledger=ledger,
            infeasible_job=infeasible,
            degraded=set(degraded),
        )

    def plan_shares(
        self,
        infos: list[PlanningJob],
        grid: SlotGrid,
        *,
        stop_on_failure: bool = True,
    ) -> AdmissionResult:
        """Fill minimum satisfactory shares for every SLO job, deadline order.

        Best-effort jobs receive an all-zero share (they are served from
        leftovers by Algorithm 2).  With ``stop_on_failure=False`` an
        infeasible job is *degraded* instead of aborting the fill: it loses
        its reservation and joins the best-effort leftover queue, so a job
        that was admitted earlier but fell behind (e.g. accumulated scaling
        overheads) cannot poison the guarantees of everyone else.

        Only soft (``stop_on_failure=False``) fills are memoized: the hard
        mode aborts mid-fill and its partial ledger is not worth replaying.
        Cache misses walk against the retained previous fill
        (:meth:`_delta_fill`) when it ran on the same grid, and fill cold
        otherwise; either way the produced fill becomes the new retained
        snapshot.  The deadline order is computed once here and shared by
        the walk and the snapshot.
        """
        ordered = sorted(infos, key=_deadline_order)
        key = None
        if not stop_on_failure and cache_enabled():
            key = self._fingerprint(infos, grid)
            if key is not None:
                cached = self._fill_cache.get(key)
                if cached is not None:
                    self._fill_cache.move_to_end(key)
                    self.fill_cache_hits += 1
                    result = self._replay(infos, grid, cached)
                    self._retained = self._snapshot(ordered, grid, result)
                    return result
                self.fill_cache_misses += 1
        result = None
        if key is not None:
            result = self._delta_fill(ordered, grid)
        if result is None:
            result = self._fill(ordered, grid, stop_on_failure=stop_on_failure)
        if key is not None:
            # Plans are frozen at registration time and the occupancy
            # vector is never edited in place, so the cache stores both by
            # reference; only the dict containers are copied.
            self._fill_cache[key] = (
                result.admitted,
                dict(result.plans),
                result.infeasible_job,
                frozenset(result.degraded),
                result.ledger.used,
            )
            while len(self._fill_cache) > self.FILL_CACHE_LIMIT:
                self._fill_cache.popitem(last=False)
            self._retained = self._snapshot(ordered, grid, result)
        return result

    def _snapshot(
        self, ordered: list[PlanningJob], grid: SlotGrid, result: AdmissionResult
    ) -> _RetainedFill:
        """Package a finished soft fill for the next event's delta pass.

        ``ordered`` must already be in deadline order (the caller sorts
        once for the fill, the delta walk and this snapshot together).
        """
        order: list[tuple[float, str, float, int]] = []
        plans: dict[str, np.ndarray] = {}
        for info in ordered:
            if info.best_effort:
                continue
            order.append(
                (info.deadline, info.job_id, info.remaining_iterations,
                 info.tables_token)
            )
            plans[info.job_id] = result.plans[info.job_id]
        return _RetainedFill(
            grid_key=(grid.origin, grid.slot_seconds, grid.horizon),
            order=order,
            plans=plans,
            degraded=frozenset(result.degraded),
        )

    def _delta_fill(
        self, ordered: list[PlanningJob], grid: SlotGrid
    ) -> AdmissionResult | None:
        """Rebuild a soft fill from the retained one, re-filling only deltas.

        Returns ``None`` (the caller fills cold) when there is no retained
        fill for this grid, or when the batched solver is off — the
        ``batched_solver_disabled()`` yardstick then re-solves every fill
        with :meth:`_fill_sequential` and shares no walk logic with
        production.  ``ordered`` is the caller's deadline-sorted view list.
        """
        retained = self._retained
        if retained is None or not batching_enabled():
            return None
        if retained.grid_key != (grid.origin, grid.slot_seconds, grid.horizon):
            return None
        return self._walk(ordered, grid, retained)

    def _fill(
        self,
        ordered: list[PlanningJob],
        grid: SlotGrid,
        *,
        stop_on_failure: bool,
    ) -> AdmissionResult:
        if not stop_on_failure and cache_enabled() and batching_enabled():
            return self._walk(ordered, grid, None)
        return self._fill_sequential(ordered, grid, stop_on_failure=stop_on_failure)

    @mutates("Ledger._plans", "Ledger._used")
    def _walk(
        self,
        ordered: list[PlanningJob],
        grid: SlotGrid,
        retained: _RetainedFill | None,
    ) -> AdmissionResult:
        """Soft Algorithm 1 fill as one deadline-order commit walk.

        A cold fill is a delta fill with nothing retained — every job is
        an arrival — so one walk serves both (bit-identical to
        :meth:`_fill_sequential` either way).

        Phase 1 packs every warm-hinted SLO job's usable-window weights
        into the event-scoped :class:`repro.core.batch.WarmRowBatch`
        (:meth:`_event_batch_for`) and evaluates all hinted-cap and
        next-lower-cap cumulative-progress rows in a few bucketed matrix
        passes.  These rows are pure view functions, valid however earlier
        jobs' plans land, so later fills of the same event find them
        already solved.

        Phase 2 walks the deadline order.  For each SLO job:

        1. With a retained fill, reuse the job's plan by reference when
           its view is unchanged and its usable window ends at or before
           the watermark ``lo`` — the first slot at which any departed
           plan, arrival or refill has touched capacity in this walk.
           Windows are prefixes of the slot grid, so ``w <= lo`` is exactly
           "this job faces a bit-identical capacity prefix".  A refill
           lowers ``lo`` only to the first slot where its plan differs from
           the old one, so a refill that reproduces its plan perturbs
           nothing.
        2. Otherwise, when the minimum free capacity across the window
           still covers the hinted cap (the fill is unclamped), the stored
           rows decide the warm verification with two scalar comparisons
           and the plan is emitted straight from the row — the same floats
           in the same order as the sequential verification.
        3. Otherwise, run :func:`progressive_filling` against exact
           availability, exactly as the cold sequential fill would.
        """
        horizon = grid.horizon
        capacity = self.capacity
        hints = self._warm_hints
        batch = self._event_batch_for(grid)
        rows = self._event_rows
        row_reuses = 0
        prepared: list[tuple[int, int, int, int] | None] = [None] * len(ordered)
        for i, info in enumerate(ordered):
            if info.best_effort or not info.sizes:
                continue
            if info.remaining_iterations <= _EPS:
                continue
            w = info.window(0)
            if w == 0:
                continue
            cap = hints.get((info.job_id, 0))
            if cap is None:
                continue
            rkey = (info.job_id, cap, info.tables_token)
            entry = rows.get(rkey)
            if entry is not None and entry[2] == w:
                prepared[i] = (entry[0], cap, entry[1], w)
                row_reuses += 1
                continue
            consts = ladder_consts(
                info.tables_token,
                cap,
                info.sizes,
                info.sizes_array(),
                info.size_table,
                info.throughput_table,
            )
            if consts is None:
                continue  # stale hint from a different table build
            s_cap, thr_hint, _below, thr_below = consts
            handle = batch.add(info.weights[:w], thr_hint, thr_below)
            rows[rkey] = (handle, s_cap, w)
            prepared[i] = (handle, cap, s_cap, w)
        batch.solve()

        old = retained.order if retained is not None else []
        old_plans = retained.plans if retained is not None else {}
        n_old = len(old)
        pos = 0
        lo = horizon  # slots below ``lo`` see a bit-identical used-prefix
        used = np.zeros(horizon, dtype=np.int64)
        plans: dict[str, np.ndarray] = {}
        degraded: set[str] = set()
        infeasible: str | None = None
        zero_plan: np.ndarray | None = None
        reuses = refills = fast = fallbacks = 0
        for i, info in enumerate(ordered):
            info.degraded = False
            if info.best_effort:
                if zero_plan is None:
                    zero_plan = np.zeros(horizon, dtype=np.int64)
                info.min_share_plan = zero_plan
                plans[info.job_id] = zero_plan
                continue
            prep = prepared[i]
            w = prep[3] if prep is not None else info.window(0)
            old_plan = None
            if retained is not None:
                okey = (info.deadline, info.job_id)
                while pos < n_old and (old[pos][0], old[pos][1]) < okey:
                    # Departed (or re-ordered) job: capacity changes from
                    # its plan's first occupied slot onward.
                    nonzero = np.flatnonzero(old_plans[old[pos][1]])
                    if nonzero.size:
                        lo = min(lo, int(nonzero[0]))
                    pos += 1
                if pos < n_old and (old[pos][0], old[pos][1]) == okey:
                    entry = old[pos]
                    pos += 1
                    old_plan = old_plans[info.job_id]
                    if (
                        w <= lo
                        and entry[2] == info.remaining_iterations
                        and entry[3] == info.tables_token
                    ):
                        if info.job_id in retained.degraded:
                            info.degraded = True
                            degraded.add(info.job_id)
                            infeasible = infeasible or info.job_id
                        info.min_share_plan = old_plan
                        plans[info.job_id] = old_plan
                        if w:
                            used[:w] += old_plan[:w]
                        reuses += 1
                        continue
                refills += 1
            plan = None
            if prep is not None:
                handle, cap, s_cap, _w = prep
                if capacity - int(used[:w].max()) >= cap:
                    required = info.remaining_iterations
                    threshold = required - _EPS
                    row = batch.hint_row(handle)
                    if (
                        row[-1] >= threshold
                        and batch.below_total(handle) < threshold
                    ):
                        # The verified hint came out of ``hints`` with this
                        # exact cap, so there is nothing to write back.
                        fast += 1
                        plan = _emit_plan(
                            info,
                            np.zeros(horizon, dtype=np.int64),
                            s_cap,
                            row,
                            required,
                            threshold,
                            info.weights[:w],
                            0,
                        )
            if plan is None:
                fallbacks += 1
                plan = progressive_filling(info, capacity - used, warm_hints=hints)
            if plan is None:
                info.degraded = True
                degraded.add(info.job_id)
                infeasible = infeasible or info.job_id
                plan = np.zeros(horizon, dtype=np.int64)
            info.min_share_plan = plan
            plans[info.job_id] = plan
            if retained is not None:
                if old_plan is not None:
                    if not np.array_equal(old_plan, plan):
                        lo = min(lo, int(np.argmax(old_plan != plan)))
                else:
                    nonzero = np.flatnonzero(plan)
                    if nonzero.size:
                        lo = min(lo, int(nonzero[0]))
            if w:
                used[:w] += plan[:w]
        note_batched_walk(fast, fallbacks)
        counters = {"alg1_row_reuses": row_reuses}
        if retained is not None:
            counters["alg1_delta_fast"] = fast
            self.delta_hits += 1
            self.delta_reuses += reuses
            self.delta_refills += refills
            self.delta_fast_accepts += fast
        probe.add_counters(counters)
        ledger = Ledger(capacity, horizon)
        ledger.load_plans(plans, used)
        return AdmissionResult(
            admitted=infeasible is None,
            plans=plans,
            ledger=ledger,
            infeasible_job=infeasible,
            degraded=degraded,
        )

    @mutates("Ledger._plans", "Ledger._used")
    def _fill_sequential(
        self,
        ordered: list[PlanningJob],
        grid: SlotGrid,
        *,
        stop_on_failure: bool,
    ) -> AdmissionResult:
        ledger = Ledger(self.capacity, grid.horizon)
        plans: dict[str, np.ndarray] = {}
        infeasible: str | None = None
        degraded: set[str] = set()
        for info in ordered:
            info.degraded = False
            if info.best_effort:
                plan = np.zeros(grid.horizon, dtype=np.int64)
            else:
                plan = progressive_filling(
                    info, ledger.available(), warm_hints=self._warm_hints
                )
                if plan is None:
                    if stop_on_failure:
                        return AdmissionResult(
                            admitted=False,
                            plans={},
                            ledger=ledger,
                            infeasible_job=info.job_id,
                        )
                    infeasible = infeasible or info.job_id
                    info.degraded = True
                    degraded.add(info.job_id)
                    plan = np.zeros(grid.horizon, dtype=np.int64)
            info.min_share_plan = plan
            plans[info.job_id] = plan
            ledger.set_plan(info.job_id, plan, trusted=True)
        return AdmissionResult(
            admitted=infeasible is None,
            plans=plans,
            ledger=ledger,
            infeasible_job=infeasible,
            degraded=degraded,
        )

    def try_admit(
        self,
        candidate: PlanningJob,
        admitted: list[PlanningJob],
        grid: SlotGrid,
    ) -> AdmissionResult:
        """Decide whether adding ``candidate`` keeps every deadline feasible.

        Jobs that are *already* infeasible (degraded — e.g. their deadlines
        lie in the past) do not veto the newcomer: their guarantee is lost
        either way, so only newly-broken deadlines count against admission.
        """
        if candidate.best_effort:
            # Best-effort jobs are always accepted (Section 4.4).
            result = self.plan_shares(
                admitted + [candidate], grid, stop_on_failure=False
            )
            result.admitted = True
            return result
        baseline_degraded = self.plan_shares(
            admitted, grid, stop_on_failure=False
        ).degraded
        result = self.plan_shares(
            admitted + [candidate], grid, stop_on_failure=False
        )
        newly_broken = result.degraded - baseline_degraded - {candidate.job_id}
        result.admitted = (
            candidate.job_id not in result.degraded and not newly_broken
        )
        return result
