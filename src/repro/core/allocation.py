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

from repro.core.admission import (
    PlanningJob,
    _ladder_plan,
    ladder_rows,
    progressive_filling,
)
from repro.core.plan import Ledger
from repro.numeric import EPS as _EPS
from repro.perf import probe
from repro.perf.coherence import mutates
from repro.perf.tables import batching_enabled, cache_enabled

__all__ = ["Upgrade", "allocate_leftover"]


class Upgrade(NamedTuple):
    """A proposed single-step expansion of one job's slot-0 allocation.

    A proposal takes one of three forms, which decide how the chain loop
    (:func:`_allocate_chained`) *revalidates* a popped proposal whose
    ledger version is stale instead of rebuilding it; the paper-literal
    loop in :func:`allocate_leftover` rebuilds every stale pop:

    - **slot-0-only** (``available is None`` and ``cap == 0``): best-effort
      and degraded jobs, and SLO jobs whose new head alone finishes the
      work.  The plan never reaches past slot 0, so the proposal stays
      valid while ``added_gpus`` fits the unclaimed slot-0 capacity.
    - **unclamped** (``cap > 0``): the tail refill ran entirely below the
      leftover capacity, so the plan is a pure function of the job's view
      and ``cap`` (the lemma in :func:`~repro.core.admission.ladder_rows`).
      It stays valid while the windowed minimum of availability plus the
      job's own plan still reaches ``cap``.
    - **clamped** (``available`` is set): the exact
      :func:`progressive_filling` refill.  ``available`` snapshots the
      ledger's unclaimed-capacity vector at proposal time — by
      *reference*: :meth:`Ledger.available` hands out a frozen array that
      is rebound, never mutated, on version change.  See
      :meth:`_LadderRows.still_valid`.

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
    #: applied it becomes the job's *current* cost, so the chain loop's
    #: follow-up proposal reuses it instead of recomputing the product.
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
    """Unclamped tail fills, plus the state the upgrade loop carries.

    Each job's tail table is ``ladder_rows(info, 1)``.  By the lemma in
    :func:`repro.core.admission.ladder_rows`, when
    ``m = min(available + own_plan)[1:stop] >= c*`` the tail refill is
    ``c*``'s row whatever the availability, so a stale unclamped proposal
    is still exactly what a rebuild would produce while ``m_now >= c*``.
    No feasible row, an empty window and a clamped window all fall back
    to :func:`progressive_filling`.
    """

    def __init__(self, ledger: Ledger) -> None:
        #: Unclaimed slot-0 GPUs, decremented by every apply (the only
        #: ledger mutation while the loop runs).
        self.avail0 = ledger.available_at(0)
        #: GPU-time of each job's *current* plan: computed once, then
        #: replaced by each applied proposal's ``new_cost``.
        self.costs: dict[str, float] = {}
        self.clamped_fallbacks = 0

    def still_valid(self, upgrade: Upgrade, info: PlanningJob, ledger: Ledger) -> bool:
        """Whether a stale-versioned proposal is exactly what a rebuild
        would produce, checked per form (see :class:`Upgrade`).

        A proposal depends only on the job's own plan (unchanged while its
        one proposal is in flight) and on the capacity left for it.  A
        clamped refill reads that capacity only inside the usable window
        and only clamped at the largest runnable size ``top`` (the fill
        takes ``min(cap, available)`` with ``cap <= top``), so an
        unchanged clamped windowed vector means a bit-identical rebuild.
        """
        if upgrade.added_gpus > self.avail0:
            return False
        stop = 1 + info.window(1)
        if upgrade.cap:
            window = ledger.available()[1:stop] + ledger.plan_view(upgrade.job_id)[1:stop]
            return int(window.min()) >= upgrade.cap
        if upgrade.available is None or stop == 1:
            return True
        top = info.sizes[-1] if info.sizes else 0
        own = ledger.plan_view(upgrade.job_id)[1:stop]
        # The snapshot holds the ledger's availability by reference; the
        # capacity the refill saw is snapshot + the job's own plan.
        then = np.minimum(np.maximum(upgrade.available[1:stop] + own, 0), top)
        now = np.minimum(np.maximum(ledger.available()[1:stop] + own, 0), top)
        return bool(np.array_equal(then, now))

    def current_cost(self, info: PlanningJob, current: np.ndarray) -> float:
        cost = self.costs.get(info.job_id)
        if cost is None:
            cost = self.costs[info.job_id] = info.gpu_seconds_of(current)
        return cost

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
        table = ladder_rows(info, 1)
        threshold = required - _EPS
        index = bisect_left(table.totals, threshold)
        if index == len(table.totals):
            return None
        cap = table.caps[index]
        stop = table.stop
        if int((avail_slots[1:stop] + current[1:stop]).min()) < cap:
            return None
        return _ladder_plan(info, table, index, head, required, threshold, 1), cap


def _propose(
    info: PlanningJob,
    ledger: Ledger,
    slot_seconds: float,
    rows: _LadderRows | None = None,
) -> Upgrade | None:
    """Build the next upgrade for one job, or ``None`` if it cannot grow.

    ``rows`` (the chain loop's per-call state) serves slot-0-only and
    unclamped tails from the ladder table, with ``progressive_filling`` as
    the fallback, and carries the GPU-time of the job's current plan;
    without it every tail goes through the fill and every cost is
    recomputed.
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
            cost = _gpu_seconds_to_completion(info, current_size, slot_seconds)
            new_cost = _gpu_seconds_to_completion(info, next_size, slot_seconds)
            priority = (cost - new_cost) / added
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
        )
        if filled is None:
            return None
        new_plan = filled
    cost = (
        rows.current_cost(info, current)
        if rows is not None
        else info.gpu_seconds_of(current)
    )
    new_cost = info.gpu_seconds_of(new_plan)
    return Upgrade(
        job_id=info.job_id,
        plan=new_plan,
        added_gpus=added,
        priority=(cost - new_cost) / added,
        tiebreak=0.0,
        ledger_version=ledger.version,
        available=snapshot,
        new_cost=new_cost,
        cap=cap,
    )


@mutates("Ledger._plans", "Ledger._used")
def allocate_leftover(
    infos: list[PlanningJob],
    ledger: Ledger,
    slot_seconds: float,
) -> dict[str, int]:
    """Run Algorithm 2: distribute leftover slot-0 GPUs by marginal return.

    Args:
        infos: Planning views of every active job.  Each must already have a
            plan registered in ``ledger`` (its minimum satisfactory share;
            all-zero for best-effort jobs).
        ledger: Occupancy ledger pre-loaded with minimum shares.  Mutated in
            place; on return it holds the final plans.
        slot_seconds: Width of one planning slot.

    Returns:
        Mapping of job id to its slot-0 GPU allocation (the decision that is
        actually executed before the next scheduling event).
    """
    by_id = {info.job_id: info for info in infos}
    if cache_enabled() and batching_enabled():
        return _allocate_chained(infos, by_id, ledger, slot_seconds)

    # The paper-literal loop: every stale pop is rebuilt from scratch.
    # Ties on (priority, tiebreak) are broken by job id, NOT insertion
    # order: the order must be a property of the proposals themselves so
    # that revalidating a stale proposal (chain loop) and rebuilding it
    # (this loop) pop jobs in the identical order.
    heap: list[tuple[float, float, str, Upgrade]] = []

    def push(info: PlanningJob) -> None:
        upgrade = _propose(info, ledger, slot_seconds)
        if upgrade is not None:
            heapq.heappush(
                heap, (-upgrade.priority, upgrade.tiebreak, upgrade.job_id, upgrade)
            )

    for info in infos:
        push(info)

    while heap and ledger.available_at(0) > 0:
        _, _, _, upgrade = heapq.heappop(heap)
        info = by_id[upgrade.job_id]
        if upgrade.ledger_version == ledger.version:
            ledger.set_plan(info.job_id, upgrade.plan, trusted=True)
        push(info)

    return {info.job_id: int(ledger.plan_view(info.job_id)[0]) for info in infos}


@mutates("Ledger._plans", "Ledger._used")
def _allocate_chained(
    infos: list[PlanningJob],
    by_id: dict[str, PlanningJob],
    ledger: Ledger,
    slot_seconds: float,
) -> dict[str, int]:
    """The chain-native upgrade loop (caches + batching on).

    Decision-equivalent to the paper-literal loop above: the heap holds
    the identical ``(-priority, tiebreak, job_id)`` total order (one live
    proposal per job), and a stale pop is applied only when a rebuild
    would reproduce it bit for bit — the rebuilt proposal would pop next
    anyway — checked per proposal form by :meth:`_LadderRows.still_valid`,
    and reproposed otherwise.
    """
    rows = _LadderRows(ledger)
    heap: list[tuple[float, float, str, Upgrade]] = []
    heappush, heappop = heapq.heappush, heapq.heappop
    for info in infos:
        upgrade = _propose(info, ledger, slot_seconds, rows)
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
                nxt = _propose(info, ledger, slot_seconds, rows)
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
            nxt = _propose(info, ledger, slot_seconds, rows)
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
