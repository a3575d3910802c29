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
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.job import Job
from repro.core.plan import Ledger
from repro.core.slots import SlotGrid
from repro.errors import ConfigurationError
from repro.numeric import EPS
from repro.perf.coherence import coherent, mutates
from repro.perf import probe
from repro.perf.tables import (
    LadderPrefix,
    PlanningTables,
    batching_enabled,
    cache_enabled,
    planning_tables_for,
)
from repro.profiles.throughput import ScalingCurve

__all__ = [
    "PlanningJob",
    "planning_job",
    "progressive_filling",
    "ladder_rows",
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
    tables="frozen",
)
@dataclass
class PlanningJob:
    """Everything the planning algorithms need to know about one job.

    Table-identity state (tables, sizes, token) is declared *frozen*
    coherent state: the admission controller's repeat key records each
    view's ``tables_token`` and adopts a previous fill only while every
    token matches, so mutating it after construction would silently
    desynchronise cached plans — a view is rebuilt, never patched, when
    its tables change.  The event-dependent planning inputs (remaining
    work, padded deadline, weight row) belong to the ``planning_frame``
    dependency: the persistent planning frame
    (``repro.core.scheduler._PlanningFrame``) rewrites them in place on
    every refresh through its declared mutator, which re-seeds the
    per-view window and full-run memos in the same step, so no derived
    state can survive the inputs it was derived from.
    Everywhere else these fields are read-only.  Only ``degraded`` and
    ``min_share_plan`` are free mutable working state.

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
            hand-built views.  The admission controller's previous fill
            is neither read nor stored whenever any participating job
            carries ``-1``.
        tables: The memoized table set itself (``None`` for hand-built
            views); its :class:`~repro.perf.tables.LadderPrefix` serves
            :func:`ladder_rows`.
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
    tables: PlanningTables | None = field(default=None, repr=False, compare=False)
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
        (the hot loops ask for the same window thousands of times) on
        every path: the window is a pure function of ``weights``, and the
        planning frame re-seeds the memo whenever it rewrites them.
        """
        windows = self.__dict__.get("_windows")
        if windows is None:
            windows = self.__dict__["_windows"] = {}
        w = windows.get(start_slot)
        if w is None:
            nonzero = np.flatnonzero(self.weights[start_slot:])
            w = int(nonzero[-1]) + 1 if nonzero.size else 0
            windows[start_slot] = w
        return w

    def full_run(self) -> tuple[float, int]:
        """``(weight, n)``: the weights open with ``n`` slots of exactly ``weight``.

        ``n`` is the run of the first weight, or 0 when that run is
        shorter than two slots: a one-slot prefix saves nothing, and a
        partial first slot would key a prefix no other view shares.
        Computed once per view; the planning frame seeds the same value
        (frame weights never increase and are capped at the slot width,
        so the run of full slots comes first) from one comparison of its
        weights matrix.
        """
        run = self.__dict__.get("_full")
        if run is None:
            weights = self.weights
            first = float(weights[0]) if len(weights) else 0.0
            n = 0
            if first > 0:
                differs = weights != first
                n = int(np.argmax(differs)) if differs.any() else len(weights)
            run = self.__dict__["_full"] = (first, n if n >= 2 else 0)
        return run

    def next_size_after(self, current: int) -> int | None:
        """Smallest allowed size strictly above ``current`` (None at the top)."""
        for size in self.sizes:
            if size > current:
                return size
        return None


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
    # Written as ``not (...)`` so NaN, which fails every comparison, is
    # rejected too; an infinite margin would silently reject every job.
    if not 0 <= safety_margin < math.inf:
        raise ConfigurationError(
            f"safety_margin must be finite and >= 0, got {safety_margin}"
        )
    if not deadline_padding_s >= 0:
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
        tables=tables,
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
) -> np.ndarray | None:
    """Compute the minimum satisfactory share of one job (Algorithm 1 inner loop).

    Raises the per-slot GPU cap through ``info.sizes`` until the achievable
    progress before the deadline covers the requirement; within a cap the
    job takes ``min(cap, leftover capacity)`` GPUs in every usable slot,
    rounded down to a size it can actually run at.  The returned plan is
    trimmed after the completion slot so later slots stay free for others.

    With both switches of :mod:`repro.perf.tables` on this is
    :func:`minimum_share`, the fill both algorithms' production paths
    call directly.  Either switch routes it to the paper-literal
    reference scan, which rebuilds the per-slot contribution cap by cap
    over the full horizon; the two are bit-identical (the equivalence
    sweeps and the benchmark's decision digest check it end to end).

    Args:
        info: Planning view of the job.
        available: Leftover GPUs per slot *excluding* this job's own plan.
        start_slot: First slot the fill may touch (Algorithm 2 re-fills
            tails with ``start_slot=1``).
        head: Fixed allocations for slots before ``start_slot``; their
            progress counts toward the requirement.

    Returns:
        A full-horizon plan, or ``None`` when no cap satisfies the deadline.
    """
    if not (cache_enabled() and batching_enabled()):
        return _progressive_filling_reference(
            info, available, start_slot=start_slot, head=head
        )
    plan = np.zeros(len(available), dtype=np.int64)
    if head is not None:
        plan[:start_slot] = head[:start_slot]
    stop = start_slot + info.window(start_slot)
    fit = minimum_share(info, plan, start_slot, available[start_slot:stop])
    return None if fit is None else fit[0]


#: :func:`minimum_share`'s cap for a fill that ran the per-cap loop.
CLAMPED = -1


def minimum_share(
    info: PlanningJob, plan: np.ndarray, start: int, free: np.ndarray
) -> tuple[np.ndarray, int] | None:
    """The production fill of Algorithms 1 and 2, written into ``plan``.

    ``plan`` is a full-horizon plan holding the fixed head in the slots
    before ``start`` and zeros from ``start`` on; ``free`` is the capacity
    the job may take in each slot of its usable window ``[start, start +
    info.window(start))``.  Returns ``(plan, cap)`` or ``None`` when no
    cap meets the deadline.  ``cap`` names how the fill was decided:

    - ``0``: the head alone finishes the work;
    - ``c*`` (the first cap whose :func:`ladder_rows` row reaches the
      work) when ``min(free) >= c*``: the lemma there makes the plan
      ``c*``'s unclamped row, read off the table;
    - :data:`CLAMPED` otherwise: the paper's per-cap loop on the window,
      starting at ``c*``.  No cap below it is feasible (a clamped
      increment never exceeds the unclamped one, and rounding is
      monotone), and caps sharing a runnable size fill identically, so
      the loop walks the table's caps only.

    No row reaching the work means no clamped fill does either.  The
    same additions in the same order as the reference scan, so every
    plan is bit-identical to it.
    """
    if start == 0:
        required = info.remaining_iterations
    elif start == 1:
        # Algorithm 2's tail refills fix one head slot: the single product
        # is the term the vector sum below would hold.
        required = info.remaining_iterations - float(
            info.throughput_table[plan[0]]
        ) * float(info.weights[0])
    else:
        required = info.remaining_iterations - float(
            (info.throughput_table[plan[:start]] * info.weights[:start]).sum()
        )
    if required <= _EPS:
        return plan, 0
    table = ladder_rows(info, start)
    threshold = required - _EPS
    index = bisect_left(table.totals, threshold)
    if index == len(table.totals):
        return None
    cap = table.caps[index]
    if int(free.min()) >= cap:
        done, earlier = table.completion(index, threshold)
        size = int(info.size_table[cap])
        return _emit_plan(info, plan, size, done, earlier, required, start), cap
    weights = info.weights[start : table.stop]
    free = np.maximum(free, 0)
    for cap in table.caps[index:]:
        x = info.size_table[np.minimum(cap, free)]
        progress = np.cumsum(info.throughput_table[x] * weights)
        if progress[-1] >= threshold:
            done = int(np.searchsorted(progress, threshold))
            earlier = float(progress[done - 1]) if done > 0 else 0.0
            return _emit_plan(info, plan, x, done, earlier, required, start), CLAMPED
    return None


class LadderTable(NamedTuple):
    """Every distinct unclamped fill of one job from ``start``; see :func:`ladder_rows`.

    Row ``i``, never materialized, is the constant-weight prefix
    ``prefix[i][:full]`` followed by the ``tail`` weights times ``thr[i]``
    accumulated on top; ``totals[i]`` is its last entry.
    """

    stop: int
    caps: tuple[int, ...]
    totals: list[float]
    full: int
    prefix: Sequence[Sequence[float]]
    thr: list[float]
    tail: list[float]

    def completion(self, index: int, threshold: float) -> tuple[int, float]:
        """``(done, earlier)`` of row ``index``: the first window slot whose
        progress reaches ``threshold`` (``np.searchsorted`` on the row) and
        the progress before it.  Needs ``totals[index] >= threshold``."""
        full = self.full
        acc = 0.0
        if full:
            row = self.prefix[index]
            acc = row[full - 1]
            if acc >= threshold:
                done = bisect_left(row, threshold, 0, full)
                return done, row[done - 1] if done else 0.0
        step = self.thr[index]
        done, earlier = full, acc
        for done, weight in enumerate(self.tail, full):
            earlier = acc
            acc += step * weight
            if acc >= threshold:
                break
        return done, earlier


def ladder_rows(info: PlanningJob, start: int) -> LadderTable:
    """Every distinct unclamped fill of a job from ``start``.

    Returns a :class:`LadderTable` over the usable window ``[start,
    stop)``: row ``i`` is ``cumsum(T[S[caps[i]]] * weights[start:stop])``,
    the progress of a fill taking ``caps[i]`` in every slot, and
    ``totals[i]`` its last entry.

    **Lemma.**  Let ``c*`` be the first cap whose row reaches ``required -
    EPS``; totals are non-decreasing in the cap, so ``c*`` is
    ``bisect_left(totals, required - EPS)``.  If every usable slot has
    ``c*`` GPUs free, every row up to ``c*`` is unclamped, so the
    reference scan emits ``_emit_plan`` of ``c*``'s row; no feasible row
    means no feasible clamped fill either.  Caps with the same runnable
    size ``S[c]`` have identical rows, clamped or not, and the scan and
    the bisect both pick the first, so only the first of each run is kept
    (:func:`minimum_share` uses all three facts).

    **Prefix lemma.**  ``np.cumsum`` adds sequentially and the window
    opens with ``full`` slots of one weight (:meth:`PlanningJob.full_run`),
    so row ``i`` is the table set's prefix ``P_i[:full]``
    (:meth:`repro.perf.tables.LadderPrefix.prefix`) with the tail
    accumulated on top of ``P_i[full - 1]``: bit for bit the scan's row,
    at O(ncaps) per tail slot (``docs/performance.md``, "One ladder
    table").  A tail longer than one slot counts ``ladder_long_tails``.
    """
    stop = start + info.window(start)
    if stop == start or not info.sizes:
        return LadderTable(stop, (), [], 0, (), [], [])
    tables = info.tables
    if tables is not None:
        ladder = tables.ladder
    else:
        ladder = info.__dict__.get("_ladder")
        if ladder is None:
            ladder = info.__dict__["_ladder"] = LadderPrefix(
                info.sizes, info.throughput_table, info.size_table
            )
    weight, run = info.full_run()
    thr = ladder.thr
    if run > start:
        full = run - start
        prefix: Sequence[Sequence[float]] = ladder.prefix(weight, full)
        totals = [row[full - 1] for row in prefix]
    else:
        full, prefix, totals = 0, (), [0.0] * len(thr)
    tail = info.weights[start + full : stop].tolist()
    if len(tail) > 1:
        probe.bump("ladder_long_tails")
    for w in tail:
        totals = [acc + step * w for acc, step in zip(totals, thr)]
    # ``tuple.__new__`` skips the generated keyword-handling constructor:
    # one table is built per fill.
    return tuple.__new__(
        LadderTable, (stop, ladder.caps, totals, full, prefix, thr, tail)
    )


def _emit_plan(
    info: PlanningJob,
    plan: np.ndarray,
    x: np.ndarray | int,
    done: int,
    earlier: float,
    required: float,
    start_slot: int,
) -> np.ndarray:
    """Write the selected cap's fill through its completion slot ``done``.

    Shared by both branches of :func:`minimum_share`; ``earlier`` is the progress
    before the completion slot.  ``x`` may be a scalar: an unclamped fill
    takes the same size in every slot, so the constant stands in for the
    per-slot row (the broadcast assignment writes the identical values
    the array would have held).
    """
    if isinstance(x, np.ndarray):
        plan[start_slot : start_slot + done + 1] = x[: done + 1]
        x_done = int(x[done])
    else:
        plan[start_slot : start_slot + done + 1] = x
        x_done = int(x)
    # Shave the completion slot to the smallest size that still finishes
    # the residual work: the selected cap over-provisions the final slot,
    # and the spare GPUs may be exactly what a later-deadline job needs.
    residual = required - earlier
    final_weight = float(info.weights[start_slot + done])
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

    This is the pre-fast-path implementation, kept as the behavioural
    yardstick: both reference switches route here, and the equivalence
    tests assert :func:`minimum_share` reproduces its decisions bit for
    bit.  Each cap's row spans ``[start_slot, last nonzero weight]``,
    found from ``weights`` itself: the slots past it would add exact
    zeros, so the verdict and the plan are those of a full-horizon scan.
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

    nonzero = np.flatnonzero(info.weights[start_slot:])
    if not nonzero.size:
        return None
    stop = start_slot + int(nonzero[-1]) + 1
    tail_available = np.maximum(available[start_slot:stop], 0)
    tail_weights = info.weights[start_slot:stop]
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


class _PreviousFill(NamedTuple):
    """The controller's last stored fill, keyed by :func:`_repeat_key`.
    Plans and ``used`` are frozen (the ledger rebinds ``used`` on every
    edit), so a repeat shares them by reference."""

    key: tuple
    plans: dict[str, np.ndarray]
    used: np.ndarray
    degraded: frozenset[str]
    infeasible: str | None


def _repeat_key(ordered: list[PlanningJob], grid: SlotGrid) -> tuple | None:
    """Every input an Algorithm 1 fill reads, in deadline order, or
    ``None`` when a view carries a hand-built table (token ``-1``)."""
    if any(info.tables_token < 0 for info in ordered):
        return None
    jobs = tuple(
        (i.deadline, i.job_id, i.remaining_iterations, i.tables_token, i.best_effort)
        for i in ordered
    )
    return (grid.origin, grid.slot_seconds, grid.horizon, jobs)


class AdmissionController:
    """Algorithm 1: deadline-ordered progressive filling over all jobs.

    An arrival runs Algorithm 1 once (the admission trial), a second time
    only when :meth:`try_admit` needs the baseline without the candidate,
    and the allocation pass then repeats the trial.  The controller keeps
    its last fill (``_previous``) and adopts it whole when the next fill's
    inputs are identical (an exact repeat, counted as ``alg1_repeats`` in
    :mod:`repro.perf.probe`); every other fill is a cold commit walk
    (:meth:`_walk`).  The previous fill is neither read nor stored while
    either reference switch of :mod:`repro.perf.tables` is active or when
    any job carries a hand-built table (token ``-1``).

    Args:
        capacity: Number of GPUs in the cluster.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._previous: _PreviousFill | None = None

    @mutates("Ledger._plans", "Ledger._used")
    def plan_shares(
        self, infos: list[PlanningJob], grid: SlotGrid
    ) -> AdmissionResult:
        """Fill minimum satisfactory shares for every SLO job, deadline order.

        Best-effort jobs receive an all-zero share (they are served from
        leftovers by Algorithm 2).  An infeasible job is *degraded*
        instead of aborting the fill: it loses its reservation and joins
        the best-effort leftover queue, so a job that was admitted earlier
        but fell behind (e.g. accumulated scaling overheads) cannot poison
        the guarantees of everyone else.  Up to the first infeasible job,
        which ``infeasible_job`` names, the fill is exactly the hard
        Algorithm 1 of the paper, so ``admitted`` is its verdict.

        A fill whose :func:`_repeat_key` equals the previous fill's adopts
        its plans, ``used``, degraded set and first infeasible job, and
        restores each view's ``degraded`` and ``min_share_plan``; any
        other fill runs cold (:meth:`_fill`) and, when keyed, becomes the
        previous fill.
        """
        ordered = sorted(infos, key=_deadline_order)
        key = _repeat_key(ordered, grid) if cache_enabled() and batching_enabled() else None
        previous = self._previous
        if key is None or previous is None or previous.key != key:
            result = self._fill(ordered, grid)
            if key is not None:
                self._previous = _PreviousFill(
                    key, dict(result.plans), result.ledger.used,
                    frozenset(result.degraded), result.infeasible_job,
                )
            return result
        probe.bump("alg1_repeats")
        plans = previous.plans
        for info in ordered:
            info.degraded = info.job_id in previous.degraded
            info.min_share_plan = plans[info.job_id]
        ledger = Ledger(self.capacity, grid.horizon)
        ledger.load_plans(plans, previous.used)
        return AdmissionResult(
            admitted=previous.infeasible is None,
            plans=dict(plans),
            ledger=ledger,
            infeasible_job=previous.infeasible,
            degraded=set(previous.degraded),
        )

    def _fill(self, ordered: list[PlanningJob], grid: SlotGrid) -> AdmissionResult:
        """One cold fill of deadline-ordered views; reads and stores no
        previous fill.  Either reference switch selects
        :meth:`_fill_sequential`, otherwise the commit walk runs."""
        if not (cache_enabled() and batching_enabled()):
            return self._fill_sequential(ordered, grid)
        return self._walk(ordered, grid)

    @mutates("Ledger._plans", "Ledger._used")
    def _walk(self, ordered: list[PlanningJob], grid: SlotGrid) -> AdmissionResult:
        """Algorithm 1 fill as one deadline-order commit walk.

        Each SLO job is filled with :func:`minimum_share` against exact
        availability in its window, bit-identical to
        :meth:`_fill_sequential`.  Unclamped fills (every window slot still
        has ``c*`` GPUs free) and the others (clamped, infeasible, no
        window, no ladder or no work left) are counted in
        :mod:`repro.perf.probe` as ``alg1_fast_accepts`` / ``alg1_fallbacks``.
        """
        horizon = grid.horizon
        capacity = self.capacity
        used = np.zeros(horizon, dtype=np.int64)
        plans: dict[str, np.ndarray] = {}
        degraded: set[str] = set()
        infeasible: str | None = None
        zero_plan: np.ndarray | None = None
        fast = fallbacks = 0
        for info in ordered:
            info.degraded = False
            if info.best_effort:
                if zero_plan is None:
                    zero_plan = np.zeros(horizon, dtype=np.int64)
                info.min_share_plan = zero_plan
                plans[info.job_id] = zero_plan
                continue
            w = info.window(0)
            plan = np.zeros(horizon, dtype=np.int64)
            fit = minimum_share(info, plan, 0, capacity - used[:w])
            if fit is not None and fit[1] > 0:
                fast += 1
            else:
                fallbacks += 1
            if fit is None:
                info.degraded = True
                degraded.add(info.job_id)
                infeasible = infeasible or info.job_id
            info.min_share_plan = plan
            plans[info.job_id] = plan
            if w:
                used[:w] += plan[:w]
        probe.add_counters({"alg1_fast_accepts": fast, "alg1_fallbacks": fallbacks})
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
        self, ordered: list[PlanningJob], grid: SlotGrid
    ) -> AdmissionResult:
        """The paper-literal fill: one :func:`progressive_filling` per job
        against the ledger, in deadline order (no ladder tables, no reuse)."""
        ledger = Ledger(self.capacity, grid.horizon)
        plans: dict[str, np.ndarray] = {}
        infeasible: str | None = None
        degraded: set[str] = set()
        for info in ordered:
            info.degraded = False
            if info.best_effort:
                plan = np.zeros(grid.horizon, dtype=np.int64)
            else:
                plan = progressive_filling(info, ledger.available())
                if plan is None:
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

        The trial fill (``admitted`` plus the candidate) runs first and is
        the returned result.  A degraded candidate is rejected outright.
        Otherwise only jobs sorting *after* the candidate in the deadline
        walk can be newly broken: every fill path is bit-identical to
        :meth:`_fill_sequential`, and the jobs before the candidate face
        the same capacity prefix with or without it, so their degraded
        flags agree in both fills.  The baseline fill (``admitted`` alone)
        therefore runs only when a trial-degraded job sorts after the
        candidate (counted as ``alg1_admit_baselines`` in
        :mod:`repro.perf.probe`).  It is a cold :meth:`_fill` that leaves
        the trial as the previous fill, so the allocation pass after an
        admission is an exact repeat; the admitted views' working state
        (``degraded``, ``min_share_plan``) is the baseline's until then.
        """
        result = self.plan_shares(admitted + [candidate], grid)
        if candidate.best_effort:
            # Best-effort jobs are always accepted (Section 4.4).
            result.admitted = True
            return result
        if candidate.job_id in result.degraded:
            result.admitted = False
            return result
        key = _deadline_order(candidate)
        later = {
            info.job_id
            for info in admitted
            if info.job_id in result.degraded and _deadline_order(info) > key
        }
        if later:
            probe.bump("alg1_admit_baselines")
            baseline = self._fill(sorted(admitted, key=_deadline_order), grid)
            later -= baseline.degraded
        result.admitted = not later
        return result
