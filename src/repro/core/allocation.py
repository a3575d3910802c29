"""Greedy elastic resource allocation (paper Section 4.2, Algorithm 2).

After every admitted job holds its minimum satisfactory share, leftover GPUs
in the *next* slot are handed out one upgrade at a time to the job with the
highest marginal return.  An upgrade raises a job's slot-0 allocation to its
next runnable size; the job's tail is then re-filled minimally (progressive
filling from slot 1), so speeding a job up releases capacity in later slots
for everyone else.  Under concave scaling curves this greedy order is
optimal for the total-GPU-time objective (Theorem 2); our tests verify this
against brute force on small instances.

Best-effort jobs (Section 4.4) participate with a zero minimum share: their
first GPU has infinite marginal return (they would otherwise never finish),
with ties broken shortest-remaining-first to minimise average JCT.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from typing import NamedTuple

import numpy as np

from repro.core.admission import PlanningJob, _emit_plan, progressive_filling
from repro.core.plan import Ledger
from repro.numeric import EPS as _EPS
from repro.perf import probe
from repro.perf.coherence import mutates
from repro.perf.tables import batching_enabled, cache_enabled

__all__ = ["Upgrade", "allocate_leftover"]


class Upgrade(NamedTuple):
    """A proposed single-step expansion of one job's slot-0 allocation.

    A proposal takes one of three forms, which decide how a popped proposal
    whose ledger version is stale is *revalidated* instead of rebuilt:

    - **slot-0-only** (``available is None`` and ``cap == 0``): best-effort
      and degraded jobs, and SLO jobs whose new head alone finishes the
      work.  The plan never reaches past slot 0, so the proposal stays
      valid while ``added_gpus`` fits the unclaimed slot-0 capacity.
    - **unclamped** (``cap > 0``): the tail refill ran entirely below the
      leftover capacity, so the plan is a pure function of the job's view
      and ``cap`` (the lemma in :class:`_LadderRows`).  It stays valid
      while the windowed minimum of availability plus the job's own plan
      still reaches ``cap``.
    - **clamped** (``available`` is set): the exact
      :func:`progressive_filling` refill.  ``available`` snapshots the
      ledger's unclaimed-capacity vector at proposal time — by
      *reference*: :meth:`Ledger.available` hands out a frozen array that
      is rebound, never mutated, on version change.  See
      :func:`_still_valid`.

    A ``NamedTuple`` rather than a dataclass: the upgrade loop constructs
    one per proposal (a seven-figure count per full-scale run) and tuple
    construction skips the frozen-dataclass ``object.__setattr__`` dance.
    Heap entries order on ``(-priority, tiebreak, job_id)`` before ever
    reaching the payload (each job has at most one live proposal), so tuple
    comparison semantics are never exercised.
    """

    job_id: str
    plan: np.ndarray
    added_gpus: int
    priority: float
    tiebreak: float
    ledger_version: int
    available: np.ndarray | None = None
    #: GPU-time of ``plan`` (SLO proposals only).  After this upgrade is
    #: applied it becomes the job's *current* cost, so the follow-up
    #: proposal reuses it instead of recomputing the identical product.
    new_cost: float = 0.0
    #: The lemma's ``c*`` for unclamped proposals; ``0`` otherwise.
    cap: int = 0


def _gpu_seconds_to_completion(info: PlanningJob, n_gpus: int, slot_seconds: float) -> float:
    """GPU-time a best-effort job burns finishing at a constant size."""
    throughput = float(info.throughput_table[n_gpus])
    if throughput <= 0.0:
        return math.inf
    return info.remaining_iterations / throughput * n_gpus


class _LadderRows:
    """Per-call unclamped ladder rows, plus the state the upgrade loop carries.

    **Lemma.**  Within one :func:`allocate_leftover` call every planning
    view is frozen, so a job's *unclamped* row for ladder cap ``c`` —
    ``cumsum(T[S[c]] * weights[1:stop])`` over its usable tail window — is
    a pure function of ``(job_id, c)``.  Let ``c*`` be the first cap whose
    unclamped row reaches ``required - EPS``.  If
    ``m = min(available + own_plan)[1:stop] >= c*``, every row up to ``c*``
    is unclamped (each slot takes ``min(c, available) == c``), so
    :func:`progressive_filling` picks ``c*`` and emits the same plan
    whatever the availability.  A stale unclamped proposal is therefore
    still exactly what a rebuild would produce while ``m_now >= c*``.

    A job's first lookup builds all of its ladder rows in one 2-D
    ``cumsum`` — row for row bit-identical to the 1-D cumsums the fill
    computes (see :mod:`repro.core.batch`).  The row totals are
    non-decreasing in the cap (``T`` is a running maximum and IEEE
    multiplication and addition round monotonically), so ``c*`` for any
    requirement is one bisect over them.  When no unclamped row is
    feasible, no clamped one is either; that case, an empty window and a
    clamped window all fall back to :func:`progressive_filling`.
    """

    def __init__(self, ledger: Ledger) -> None:
        self._tables: dict[str, tuple[int, list[float], np.ndarray]] = {}
        #: Unclaimed slot-0 GPUs, decremented by every apply (the only
        #: ledger mutation while the loop runs).
        self.avail0 = ledger.available_at(0)
        #: GPU-time of each job's *current* plan: computed once, then
        #: replaced by each applied proposal's ``new_cost``.
        self.costs: dict[str, float] = {}
        self.clamped_fallbacks = 0

    def still_valid(self, upgrade: Upgrade, info: PlanningJob, ledger: Ledger) -> bool:
        """Whether a stale-versioned proposal is exactly what a rebuild
        would produce, checked per form (see :class:`Upgrade`)."""
        if upgrade.added_gpus > self.avail0:
            return False
        if upgrade.cap:
            stop = self._tables[upgrade.job_id][0]
            window = ledger.available()[1:stop] + ledger.plan_view(upgrade.job_id)[1:stop]
            return int(window.min()) >= upgrade.cap
        return upgrade.available is None or _still_valid(
            upgrade, info, ledger, slot0_ok=True
        )

    def current_cost(self, info: PlanningJob, current: np.ndarray) -> float:
        cost = self.costs.get(info.job_id)
        if cost is None:
            cost = self.costs[info.job_id] = info.gpu_seconds_of(current)
        return cost

    def _table(self, info: PlanningJob) -> tuple[int, list[float], np.ndarray]:
        """``(stop, row totals, rows)`` of a job; no rows without a window
        or a ladder, so every requirement then falls back to the fill."""
        table = self._tables.get(info.job_id)
        if table is None:
            stop = 1 + info.window(1)
            if stop > 1 and info.sizes:
                thr = info.throughput_table[info.size_table[info.sizes_array()]]
                rows = np.cumsum(thr[:, None] * info.weights[1:stop], axis=1)
                table = (stop, rows[:, -1].tolist(), rows)
            else:
                table = (stop, [], np.empty((0, 0)))
            self._tables[info.job_id] = table
        return table

    def unclamped(
        self,
        info: PlanningJob,
        avail_slots: np.ndarray,
        current: np.ndarray,
        head: np.ndarray,
    ) -> tuple[np.ndarray, int] | None:
        """The slot-0-only or unclamped plan for ``head``, with its ``c*``.

        Returns ``(head, 0)`` when the head alone finishes the work,
        ``(plan, c*)`` when the lemma applies, and ``None`` when only the
        exact fill can answer.
        """
        required = info.remaining_iterations - float(
            info.throughput_table[head[0]]
        ) * float(info.weights[0])
        if required <= _EPS:
            return head, 0
        stop, totals, rows = self._table(info)
        threshold = required - _EPS
        index = bisect_left(totals, threshold)
        if index == len(totals):
            return None
        cap = info.sizes[index]
        if int((avail_slots[1:stop] + current[1:stop]).min()) < cap:
            return None
        plan = _emit_plan(
            info,
            head,
            int(info.size_table[cap]),
            rows[index],
            required,
            threshold,
            info.weights[1:stop],
            1,
        )
        return plan, cap


def _propose(
    info: PlanningJob,
    ledger: Ledger,
    slot_seconds: float,
    old_cost: float | None = None,
    warm_hints: dict[tuple[str, int], int] | None = None,
    rows: _LadderRows | None = None,
) -> Upgrade | None:
    """Build the next upgrade for one job, or ``None`` if it cannot grow.

    ``old_cost`` short-circuits the GPU-time of the job's current plan when
    the caller already knows it (the cost of the upgrade it just applied).
    ``warm_hints`` carries the tail refill's previous cap choices into
    :func:`progressive_filling` (verified there; see its docstring).
    ``rows`` (the chain loop's per-call state) serves slot-0-only and
    unclamped tails from the ladder table, with ``progressive_filling`` as
    the fallback; without it every tail goes through the fill.
    """
    current = ledger.plan_view(info.job_id)
    current_size = int(current[0])
    next_size = info.next_size_after(current_size)
    if next_size is None:
        return None
    # Constraint (7): only grow while throughput strictly improves.
    if info.throughput_table[next_size] <= info.throughput_table[current_size]:
        return None
    added = next_size - current_size
    # Slot-0 feasibility over the job-inclusive capacity reduces to the
    # ledger's unclaimed slot-0 count (the job's own share cancels), so no
    # capacity vector is materialised unless the tail fill needs one.
    if added > (rows.avail0 if rows is not None else ledger.available_at(0)):
        return None

    if info.best_effort or info.degraded:
        # Degraded SLO jobs (deadline already unmeetable) are served exactly
        # like best-effort jobs: leftovers only, finish as early as possible.
        new_plan = np.zeros(ledger.horizon, dtype=np.int64)
        new_plan[0] = next_size
        if current_size == 0:
            priority = math.inf
            tiebreak = _gpu_seconds_to_completion(info, 1, slot_seconds)
        else:
            old_cost = _gpu_seconds_to_completion(info, current_size, slot_seconds)
            new_cost = _gpu_seconds_to_completion(info, next_size, slot_seconds)
            priority = (old_cost - new_cost) / added
            tiebreak = 0.0
        return Upgrade(
            job_id=info.job_id,
            plan=new_plan,
            added_gpus=added,
            priority=priority,
            tiebreak=tiebreak,
            ledger_version=ledger.version,
        )
    avail_slots = ledger.available()
    head = np.zeros(ledger.horizon, dtype=np.int64)
    head[0] = next_size
    fit = None if rows is None else rows.unclamped(info, avail_slots, current, head)
    if fit is not None:
        new_plan, cap = fit
        snapshot = None
    else:
        if rows is not None:
            rows.clamped_fallbacks += 1
        cap = 0
        snapshot = avail_slots
        filled = progressive_filling(
            info,
            avail_slots + current,  # capacity if this job replans
            start_slot=1,
            head=head,
            warm_hints=warm_hints,
        )
        if filled is None:
            return None
        new_plan = filled
    if old_cost is None:
        old_cost = (
            rows.current_cost(info, current)
            if rows is not None
            else info.gpu_seconds_of(current)
        )
    new_cost = info.gpu_seconds_of(new_plan)
    return Upgrade(
        job_id=info.job_id,
        plan=new_plan,
        added_gpus=added,
        priority=(old_cost - new_cost) / added,
        tiebreak=0.0,
        ledger_version=ledger.version,
        available=snapshot,
        new_cost=new_cost,
        cap=cap,
    )


def _still_valid(
    upgrade: Upgrade,
    info: PlanningJob,
    ledger: Ledger,
    slot0_ok: bool = False,
) -> bool:
    """Whether a stale-versioned proposal is still exactly what a rebuild
    would produce.  ``slot0_ok`` says the caller already verified
    ``added <= available[0]``.

    A proposal depends only on the proposing job's own registered plan
    (unchanged — each job has at most one proposal in flight, so its plan
    can only have moved by applying *this* proposal) and on the capacity
    left for it.  Slot-0 feasibility reduces to ``added <= available[0]``;
    a clamped proposal's tail refill additionally depends on the leftover
    capacity per slot, but only *within the job's usable window* (slots
    with nonzero weight — progress and the written plan never reach past
    it) and only *clamped at the job's largest runnable size* (the fill
    takes ``min(cap, available)`` with ``cap <= top``, so capacity above
    ``top`` is indistinguishable from ``top``).  When the clamped windowed
    capacity vector is unchanged, the rebuilt proposal is bit-identical
    (same plan, same priority), so the popped one can be applied directly —
    this turns Algorithm 2 from O(upgrades x jobs) refills into
    O(upgrades) refills plus cheap short-vector comparisons.
    """
    if not slot0_ok and upgrade.added_gpus > ledger.available_at(0):
        return False
    if upgrade.available is None:
        return True
    stop = 1 + info.window(1)
    if stop == 1:
        return True
    top = info.sizes[-1] if info.sizes else 0
    cur_win = ledger.plan_view(upgrade.job_id)[1:stop]
    # The snapshot holds the ledger's availability by reference; the
    # capacity the refill saw is snapshot + the job's own plan, which is
    # unchanged while its proposal is in flight (Upgrade docstring).
    then = np.minimum(np.maximum(upgrade.available[1:stop] + cur_win, 0), top)
    now = np.minimum(
        np.maximum(ledger.available()[1:stop] + cur_win, 0), top
    )
    return bool(np.array_equal(then, now))


@mutates("Ledger._plans", "Ledger._used")
def allocate_leftover(
    infos: list[PlanningJob],
    ledger: Ledger,
    slot_seconds: float,
    *,
    warm_hints: dict[tuple[str, int], int] | None = None,
) -> dict[str, int]:
    """Run Algorithm 2: distribute leftover slot-0 GPUs by marginal return.

    Args:
        infos: Planning views of every active job.  Each must already have a
            plan registered in ``ledger`` (its minimum satisfactory share;
            all-zero for best-effort jobs).
        ledger: Occupancy ledger pre-loaded with minimum shares.  Mutated in
            place; on return it holds the final plans.
        slot_seconds: Width of one planning slot.
        warm_hints: Optional cap-hint store threaded into every exact tail
            refill (see :func:`repro.core.admission.progressive_filling`);
            the policy passes its controller's hint dict so cap choices
            carry across events.

    Returns:
        Mapping of job id to its slot-0 GPU allocation (the decision that is
        actually executed before the next scheduling event).
    """
    by_id = {info.job_id: info for info in infos}
    revalidate = cache_enabled()
    if revalidate and batching_enabled():
        return _allocate_chained(infos, by_id, ledger, slot_seconds, warm_hints)

    # Ties on (priority, tiebreak) are broken by job id, NOT insertion
    # order: the order must be a property of the proposals themselves so
    # that revalidating a stale proposal (fast path) and rebuilding it
    # from scratch (cache-disabled path) pop jobs in the identical order.
    heap: list[tuple[float, float, str, Upgrade]] = []

    def push(info: PlanningJob, old_cost: float | None = None) -> None:
        upgrade = _propose(info, ledger, slot_seconds, old_cost, warm_hints)
        if upgrade is not None:
            heapq.heappush(
                heap, (-upgrade.priority, upgrade.tiebreak, upgrade.job_id, upgrade)
            )

    for info in infos:
        push(info)

    while heap and ledger.available_at(0) > 0:
        _, _, _, upgrade = heapq.heappop(heap)
        info = by_id[upgrade.job_id]
        if upgrade.ledger_version != ledger.version and not (
            revalidate and _still_valid(upgrade, info, ledger)
        ):
            push(info)  # genuinely stale: capacity it relied on is gone
            continue
        ledger.set_plan(info.job_id, upgrade.plan, trusted=True)
        # The applied plan is now the job's current one, so its cost can
        # carry into the follow-up proposal (the SLO branch would
        # recompute the identical product; best-effort proposals never
        # read it).  The carry is a memo, so the cache-disabled path
        # recomputes instead.
        push(info, upgrade.new_cost if revalidate else None)

    return {info.job_id: int(ledger.plan_view(info.job_id)[0]) for info in infos}


@mutates("Ledger._plans", "Ledger._used")
def _allocate_chained(
    infos: list[PlanningJob],
    by_id: dict[str, PlanningJob],
    ledger: Ledger,
    slot_seconds: float,
    warm_hints: dict[tuple[str, int], int] | None,
) -> dict[str, int]:
    """The chain-native upgrade loop (caches + batching on).

    Decision-equivalent to the sequential loop above, pop for pop: the
    heap holds the identical ``(-priority, tiebreak, job_id)`` total order
    (one live proposal per job), and a stale pop is applied only when a
    rebuild would reproduce it bit for bit — checked per proposal form
    (see :class:`Upgrade`) — and reproposed otherwise.
    """
    rows = _LadderRows(ledger)
    heap: list[tuple[float, float, str, Upgrade]] = []
    heappush, heappop = heapq.heappush, heapq.heappop
    for info in infos:
        upgrade = _propose(info, ledger, slot_seconds, None, warm_hints, rows)
        if upgrade is not None:
            heappush(heap, (-upgrade.priority, upgrade.tiebreak, info.job_id, upgrade))

    # Loop-frequency counters live in locals and flush once per call.
    pops = applies = stale_valid = 0
    while heap and rows.avail0 > 0:
        _, _, job_id, upgrade = heappop(heap)
        pops += 1
        info = by_id[job_id]
        if upgrade.ledger_version != ledger.version:
            if not rows.still_valid(upgrade, info, ledger):
                # Genuinely stale: the capacity it relied on is gone.
                nxt = _propose(info, ledger, slot_seconds, None, warm_hints, rows)
                if nxt is not None:
                    heappush(heap, (-nxt.priority, nxt.tiebreak, job_id, nxt))
                continue
            stale_valid += 1
        ledger.set_plan(job_id, upgrade.plan, trusted=True)
        applies += 1
        rows.avail0 -= upgrade.added_gpus
        rows.costs[job_id] = upgrade.new_cost
        # With slot-0 capacity spent the follow-up would fail its slot-0
        # gate before doing any work, so skip building it.
        if rows.avail0 > 0:
            nxt = _propose(info, ledger, slot_seconds, None, warm_hints, rows)
            if nxt is not None:
                heappush(heap, (-nxt.priority, nxt.tiebreak, job_id, nxt))

    probe.add_counters(
        {
            "alg2_heap_pops": pops,
            "alg2_applies": applies,
            "alg2_stale_valid": stale_valid,
            "alg2_clamped_fallbacks": rows.clamped_fallbacks,
        }
    )
    return {info.job_id: int(ledger.plan_view(info.job_id)[0]) for info in infos}
