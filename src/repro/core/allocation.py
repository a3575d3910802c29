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
from typing import NamedTuple

import numpy as np

from repro.core.admission import (
    CLAMPED,
    PlanningJob,
    minimum_share,
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

    ``cap`` is the tail refill's :func:`~repro.core.admission.minimum_share`
    cap, and names the form that decides whether the chain loop
    (:func:`_allocate_chained`) keeps a popped proposal whose ledger
    version is stale instead of rebuilding it; the paper-literal loop in
    :func:`allocate_leftover` rebuilds every stale pop:

    - **slot-0-only** (``cap == 0``): best-effort and degraded jobs, and
      SLO jobs whose new head alone finishes the work.  The plan never
      reaches past slot 0, so the proposal stays valid while
      ``added_gpus`` fits the unclaimed slot-0 capacity.
    - **unclamped** (``cap > 0``, the lemma's ``c*``): the tail refill ran
      entirely below the leftover capacity, so the plan is a pure function
      of the job's view and ``cap`` (the lemma in
      :func:`~repro.core.admission.ladder_rows`).  It stays valid while the
      windowed minimum of availability plus the job's own plan still
      reaches ``cap``.
    - **clamped** (``cap == CLAMPED``): the refill read the availability
      itself, so a stale one is always rebuilt.

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
    #: GPU-time of ``plan`` (SLO proposals only).  After this upgrade is
    #: applied it becomes the job's *current* cost, so the chain loop's
    #: follow-up proposal reuses it instead of recomputing the product.
    new_cost: float = 0.0
    #: The form: ``c*``, ``0`` or ``CLAMPED`` (see above).
    cap: int = 0


def _gpu_seconds_to_completion(info: PlanningJob, n_gpus: int, slot_seconds: float) -> float:
    """GPU-time a best-effort job burns finishing at a constant size."""
    throughput = float(info.throughput_table[n_gpus])
    if throughput <= 0.0:
        return math.inf
    return info.remaining_iterations / throughput * n_gpus


class _ChainState:
    """The state the chain loop carries across pops."""

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
        one proposal is in flight) and on the capacity left for it.  By
        the lemma in :func:`repro.core.admission.ladder_rows`, an
        unclamped refill is ``c*``'s row whatever the availability while
        ``min(available + own_plan)[1:stop] >= c*``.
        """
        cap = upgrade.cap
        if upgrade.added_gpus > self.avail0 or cap == CLAMPED:
            return False
        if not cap:
            return True
        stop = 1 + info.window(1)
        window = ledger.available()[1:stop] + ledger.plan_view(upgrade.job_id)[1:stop]
        return int(window.min()) >= cap

    def current_cost(self, info: PlanningJob, current: np.ndarray) -> float:
        cost = self.costs.get(info.job_id)
        if cost is None:
            cost = self.costs[info.job_id] = info.gpu_seconds_of(current)
        return cost


def _propose(
    info: PlanningJob,
    ledger: Ledger,
    slot_seconds: float,
    state: _ChainState | None = None,
) -> Upgrade | None:
    """Build the next upgrade for one job, or ``None`` if it cannot grow.

    With ``state`` (the chain loop's per-call state) the tail refill is
    :func:`~repro.core.admission.minimum_share`, whose cap names the
    proposal's form, and the GPU-time of the job's current plan is
    carried; without it (the paper-literal loop) the tail goes through
    :func:`progressive_filling` and every cost is recomputed.
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
    if added > (state.avail0 if state is not None else ledger.available_at(0)):
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
    # The capacity if this job replans: its own plan is handed back.
    if state is None:
        new_plan = progressive_filling(
            info, avail_slots + current, start_slot=1, head=head
        )
        if new_plan is None:
            return None
        cap = 0  # never read: this loop rebuilds every stale pop
        cost = info.gpu_seconds_of(current)
    else:
        stop = 1 + info.window(1)
        fit = minimum_share(info, head, 1, avail_slots[1:stop] + current[1:stop])
        if fit is None or fit[1] == CLAMPED:
            state.clamped_fallbacks += 1
        if fit is None:
            return None
        new_plan, cap = fit
        cost = state.current_cost(info, current)
    new_cost = info.gpu_seconds_of(new_plan)
    return Upgrade(
        job_id=info.job_id,
        plan=new_plan,
        added_gpus=added,
        priority=(cost - new_cost) / added,
        tiebreak=0.0,
        ledger_version=ledger.version,
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
    anyway — checked per proposal form by :meth:`_ChainState.still_valid`,
    and reproposed otherwise.
    """
    state = _ChainState(ledger)
    heap: list[tuple[float, float, str, Upgrade]] = []
    heappush, heappop = heapq.heappush, heapq.heappop
    for info in infos:
        upgrade = _propose(info, ledger, slot_seconds, state)
        if upgrade is not None:
            heappush(heap, (-upgrade.priority, upgrade.tiebreak, info.job_id, upgrade))

    # Loop-frequency counters live in locals and flush once per call.
    pops = applies = stale_valid = 0
    while heap and state.avail0 > 0:
        _, _, job_id, upgrade = heappop(heap)
        pops += 1
        info = by_id[job_id]
        if upgrade.ledger_version != ledger.version:
            if not state.still_valid(upgrade, info, ledger):
                # Genuinely stale: the capacity it relied on is gone.
                nxt = _propose(info, ledger, slot_seconds, state)
                if nxt is not None:
                    heappush(heap, (-nxt.priority, nxt.tiebreak, job_id, nxt))
                continue
            stale_valid += 1
        ledger.set_plan(job_id, upgrade.plan, trusted=True)
        applies += 1
        state.avail0 -= upgrade.added_gpus
        state.costs[job_id] = upgrade.new_cost
        # With slot-0 capacity spent the follow-up would fail its slot-0
        # gate before doing any work, so skip building it.
        if state.avail0 > 0:
            nxt = _propose(info, ledger, slot_seconds, state)
            if nxt is not None:
                heappush(heap, (-nxt.priority, nxt.tiebreak, job_id, nxt))

    probe.add_counters(
        {
            "alg2_heap_pops": pops,
            "alg2_applies": applies,
            "alg2_stale_valid": stale_valid,
            "alg2_clamped_fallbacks": state.clamped_fallbacks,
        }
    )
    return {info.job_id: int(ledger.plan_view(info.job_id)[0]) for info in infos}
