"""The ElasticFlow scheduler policy (paper Sections 3 and 4).

On every scheduling event the policy rebuilds a slot grid anchored at the
current time, recomputes the minimum satisfactory share of every admitted
SLO job (Algorithm 1), and distributes leftover GPUs by marginal return
(Algorithm 2).  Arriving SLO jobs are admitted only when the combined
progressive fill stays feasible; best-effort jobs bypass admission and are
served from leftovers (Section 4.4).
"""

from __future__ import annotations

import math
from collections import OrderedDict

import numpy as np

from repro.core.admission import AdmissionController, PlanningJob, planning_job
from repro.core.allocation import allocate_leftover
from repro.core.job import Job
from repro.core.operator import OperatorPolicy
from repro.core.slots import SlotGrid
from repro.errors import ConfigurationError
from repro.perf import probe
from repro.perf.coherence import coherent, invalidates, mutates
from repro.perf.tables import (
    cache_enabled,
    planning_tables_for,
    tables_global_revision,
)
from repro.sim.interface import SchedulerPolicy

__all__ = ["ElasticFlowPolicy"]


@coherent(_entries="planning_frame")
class _PlanningFrame:
    """Persistent planning views for the whole active set.

    Grids re-anchor at each event's ``now``, so every view's
    event-dependent inputs change on every event.  The frame keeps one
    view per live job and *refreshes* those inputs in place with stacked
    array math shared across the set: one vectorized padding pass over
    the raw deadlines, one :meth:`SlotGrid.weights_matrix` build, one
    :meth:`SlotGrid.window_ends` searchsorted — then scalar write-backs
    into the persistent views.  Table-identity state (tables, sizes,
    token) stays frozen on the views; a view is rebuilt, never patched,
    when its curve's tables were invalidated, detected with one
    :func:`repro.perf.tables.tables_global_revision` compare per refresh
    (token compares per job run only after the counter moved, so the
    steady state never touches the table store at all).

    Refreshed values are bit-identical to :func:`planning_job`: the
    padding expression performs the same IEEE ops elementwise (``inf``
    deadlines pass through unchanged because ``min(padding, inf) ==
    padding``), the weight rows and window ends equal
    ``weights_until``/per-view windows (the slot-grid property tests pin
    this), and write-backs go through ``.tolist()`` so views keep
    carrying plain Python floats — the fill fingerprint hashes the
    identical values either way.

    ``min_share_plan`` and ``degraded`` are deliberately *not* reset on
    refresh: every fill path (cold, batched, delta, replay) overwrites
    both for every participating view before anything reads them.
    """

    def __init__(self, policy: "ElasticFlowPolicy") -> None:
        self._policy = policy
        self._entries: dict[str, PlanningJob] = {}
        self._capacity = -1
        self._tables_rev = -1

    @mutates(
        "_entries",
        "PlanningJob.remaining_iterations",
        "PlanningJob.deadline",
        "PlanningJob.weights",
    )
    @invalidates("planning_frame")
    def refresh(self, jobs: list[Job], grid: SlotGrid) -> list[PlanningJob]:
        """Bring the frame to this event's grid; returns views in order.

        This method is the ``planning_frame`` invalidation point: the
        mutated inputs and every derived per-view memo (the window seed)
        are rewritten together, so callers observe only fully refreshed
        views.
        """
        policy = self._policy
        entries = self._entries
        capacity = policy.context.total_gpus
        if capacity != self._capacity:
            entries.clear()
            self._capacity = capacity
        revision = tables_global_revision()
        validate = revision != self._tables_rev
        self._tables_rev = revision

        n = len(jobs)
        raw = np.empty(n, dtype=np.float64)
        remaining = np.empty(n, dtype=np.float64)
        for i, job in enumerate(jobs):
            raw[i] = job.spec.effective_deadline
            remaining[i] = job.remaining_iterations
        if policy.deadline_padding_s:
            # Elementwise-identical to the scalar padding: for an infinite
            # deadline the inner max is inf, the min collapses to the
            # configured padding, and inf minus a finite float stays inf.
            deadlines = raw - np.minimum(
                policy.deadline_padding_s,
                0.1 * np.maximum(0.0, raw - grid.origin),
            )
        else:
            deadlines = raw
        remaining *= 1.0 + policy.safety_margin
        weight_rows = grid.weights_matrix(deadlines)
        ends = grid.window_ends(deadlines)
        deadline_list = deadlines.tolist()
        remaining_list = remaining.tolist()

        builds = 0
        views: list[PlanningJob] = []
        for i, job in enumerate(jobs):
            view = entries.get(job.job_id)
            if view is None or validate:
                curve = policy._planning_curve(job)
                tables = planning_tables_for(curve, capacity)
                if view is None or view.tables_token != tables.token:
                    builds += 1
                    view = PlanningJob(
                        job_id=job.job_id,
                        remaining_iterations=remaining_list[i],
                        deadline=deadline_list[i],
                        weights=weight_rows[i],
                        throughput_table=tables.throughput_table,
                        size_table=tables.size_table,
                        sizes=tables.sizes,
                        best_effort=job.spec.best_effort,
                        tables_token=tables.token,
                    )
                    entries[job.job_id] = view
                    w0 = int(ends[i])
                    view.__dict__["_windows"] = {0: w0, 1: max(w0 - 1, 0)}
                    views.append(view)
                    continue
            view.remaining_iterations = remaining_list[i]
            view.deadline = deadline_list[i]
            view.weights = weight_rows[i]
            w0 = int(ends[i])
            # Window from slot 1 drops at most the slot-0 weight.
            view.__dict__["_windows"] = {0: w0, 1: max(w0 - 1, 0)}
            views.append(view)

        evictions = 0
        if len(entries) > 2 * n + 64:
            live = {job.job_id for job in jobs}
            stale = [job_id for job_id in entries if job_id not in live]
            for job_id in stale:
                del entries[job_id]
            evictions = len(stale)
        probe.add_counters(
            {
                "frame_refreshes": 1,
                "frame_rows": n,
                "frame_builds": builds,
                "frame_evictions": evictions,
            }
        )
        return views


class ElasticFlowPolicy(SchedulerPolicy):
    """Deadline-driven serverless scheduling with elastic scaling.

    Args:
        safety_margin: Fraction by which planned work is inflated so that
            scaling overheads cannot silently break admitted deadlines.
            Zero reproduces the paper's algorithms exactly.
        deadline_padding_s: Per-job time allowance subtracted from deadlines
            during planning — protection shaped like the per-event
            checkpoint/restore stalls (work inflation alone under-protects
            short jobs that scale often).
        max_horizon: Upper bound on planning slots; when deadlines reach
            further, the slot width is stretched for that planning round.
        admission_enabled: Turning admission off yields the Fig 9 ablation
            variant "EDF + Elastic Scaling" via :mod:`repro.baselines`.
        stability_threshold: Overhead-aware hysteresis — a running job keeps
            its current allocation when the proposed change would move its
            throughput by less than this fraction (and its minimum share
            stays covered).  Zero disables it, reproducing the paper's
            algorithms exactly; small positive values trade a little
            Algorithm 2 optimality for far fewer checkpoint/restore stalls.
        planning_throughput: Optional alternative throughput model used for
            *planning only* (execution still follows the cluster's real
            curves).  Supplying a pessimistic model reproduces the naive
            always-worst-placement approach Section 4.3 argues against.
        failure_reserve_gpus: GPUs withheld from planning so that a node
            failure does not instantly break admitted guarantees — the
            Section 4.4 "node failures" extension.
        operator_policy: Extra operator-side gate (quota/pricing) applied
            after feasibility, "before line 9 of Algorithm 1" as the paper
            puts it (Section 4.4, malicious users).
    """

    name = "elasticflow"

    def __init__(
        self,
        *,
        safety_margin: float = 0.0,
        deadline_padding_s: float = 0.0,
        max_horizon: int = 2048,
        admission_enabled: bool = True,
        stability_threshold: float = 0.0,
        planning_throughput=None,
        failure_reserve_gpus: int = 0,
        operator_policy: OperatorPolicy | None = None,
    ) -> None:
        super().__init__()
        if safety_margin < 0:
            raise ConfigurationError(
                f"safety_margin must be >= 0, got {safety_margin}"
            )
        if deadline_padding_s < 0:
            raise ConfigurationError(
                f"deadline_padding_s must be >= 0, got {deadline_padding_s}"
            )
        if max_horizon < 1:
            raise ConfigurationError(f"max_horizon must be >= 1, got {max_horizon}")
        if stability_threshold < 0:
            raise ConfigurationError(
                f"stability_threshold must be >= 0, got {stability_threshold}"
            )
        self.safety_margin = safety_margin
        self.deadline_padding_s = deadline_padding_s
        self.max_horizon = max_horizon
        self.admission_enabled = admission_enabled
        if failure_reserve_gpus < 0:
            raise ConfigurationError(
                f"failure_reserve_gpus must be >= 0, got {failure_reserve_gpus}"
            )
        self.stability_threshold = stability_threshold
        self.planning_throughput = planning_throughput
        self.failure_reserve_gpus = failure_reserve_gpus
        self.operator_policy = operator_policy
        # One controller per planning capacity (capacity changes only on
        # node failure/repair), so its memoized fills survive across
        # scheduling events — see AdmissionController's caching contract.
        # LRU-bounded: repeated failure/repair cycles would otherwise
        # accumulate controllers (each pinning its fill memo) forever.
        self._controllers: OrderedDict[int, AdmissionController] = OrderedDict()
        # Persistent planning views, refreshed in place on every event
        # (see _PlanningFrame).
        self._frame = _PlanningFrame(self)

    # ------------------------------------------------------------ interface
    def _planning_capacity(self) -> int:
        """GPUs planning may promise.

        The failure reserve is insurance: in a healthy cluster planning
        stops ``failure_reserve_gpus`` short of the total, so an outage of
        up to that many GPUs leaves every promise intact; during an outage
        the reserve is *spent* (planning uses whatever is actually usable,
        not less).
        """
        insured = self.context.total_gpus - self.failure_reserve_gpus
        return min(self.context.usable_gpus, insured)

    def admit(self, job: Job, active: list[Job], now: float) -> bool:
        """Algorithm 1 plus the operator gate (Section 4.4).

        A job is admitted when (i) every deadline stays feasible after the
        progressive fill and (ii) the operator policy, if any, approves —
        the paper's "extra policy or charge ... before line 9".
        """
        if not self.admission_enabled or job.spec.best_effort:
            return self._operator_gate(job, now)
        if self._planning_capacity() < 1:
            return False  # total outage: nothing can be guaranteed
        mark = probe.tick()
        grid = self._grid(now, active + [job])
        controller = self._controller(self._planning_capacity())
        slo_active = [j for j in active if not j.spec.best_effort]
        views = self._infos([job] + slo_active, grid)
        candidate, admitted = views[0], views[1:]
        mark = probe.lap("views", mark)
        result = controller.try_admit(candidate, admitted, grid)
        probe.lap("alg1", mark)
        if not result.admitted:
            return False
        return self._operator_gate(job, now)

    def _operator_gate(self, job: Job, now: float) -> bool:
        if self.operator_policy is None:
            return True
        if not self.operator_policy.approve(job, now):
            return False
        self.operator_policy.on_admitted(job, now)
        return True

    def allocate(self, active: list[Job], now: float) -> dict[str, int]:
        """Algorithms 1 + 2: minimum shares, then marginal-return leftovers.

        No event-level result cache lives here (grids re-anchor per event,
        so cross-event hits are impossible — see ``docs/performance.md``);
        repeated solves *within* one event are replayed by the admission
        controller's fill memo.
        """
        if not active:
            return {}
        capacity = self._planning_capacity()
        if capacity < 1:
            return {job.job_id: 0 for job in active}
        mark = probe.tick()
        grid = self._grid(now, active)
        controller = self._controller(capacity)
        infos = self._infos(active, grid)
        if cache_enabled() and len(controller.warm_hints) > 2 * len(active) + 64:
            controller.prune_warm_hints({job.job_id for job in active})
        mark = probe.lap("views", mark)
        result = controller.plan_shares(infos, grid, stop_on_failure=False)
        mark = probe.lap("alg1", mark)
        decisions = allocate_leftover(
            infos,
            result.ledger,
            grid.slot_seconds,
            warm_hints=controller.warm_hints if cache_enabled() else None,
        )
        if self.stability_threshold > 0:
            decisions = self._stabilize(
                decisions, infos, active, self._share_minima(infos)
            )
        probe.lap("alg2", mark)
        return decisions

    @staticmethod
    def _share_minima(infos: list[PlanningJob]) -> dict[str, int]:
        """Slot-0 minimum shares of the non-degraded jobs (zeros omitted)."""
        minima: dict[str, int] = {}
        for info in infos:
            if info.min_share_plan is not None and not info.degraded:
                minimum = int(info.min_share_plan[0])
                if minimum:
                    minima[info.job_id] = minimum
        return minima

    def _stabilize(
        self,
        decisions: dict[str, int],
        infos: list[PlanningJob],
        active: list[Job],
        minima: dict[str, int],
    ) -> dict[str, int]:
        """Keep current allocations when the proposed change barely helps.

        A job may stay at its current size when (i) that size still covers
        its minimum satisfactory share in the next slot, (ii) the proposed
        size changes its throughput by less than ``stability_threshold``,
        and (iii) cluster capacity still holds.  This suppresses the
        checkpoint/restore churn of re-solving Algorithm 2 at every event.
        ``minima`` carries Algorithm 1's slot-0 minimum shares so
        hysteresis never has to re-solve to learn them.
        """
        by_id = {info.job_id: info for info in infos}
        total = sum(decisions.values())
        capacity = self._planning_capacity()
        for job in active:
            target = decisions.get(job.job_id, 0)
            current = job.n_gpus
            if current == target or current == 0:
                continue
            info = by_id[job.job_id]
            if current < minima.get(job.job_id, 0):
                continue  # must move: the deadline depends on it
            thr_current = float(info.throughput_table[current])
            thr_target = float(info.throughput_table[target])
            if thr_current <= 0:
                continue
            if abs(thr_target - thr_current) / thr_current >= self.stability_threshold:
                continue
            delta = current - target
            if total + delta <= capacity:
                decisions[job.job_id] = current
                total += delta
        return decisions

    # -------------------------------------------------------------- helpers
    #: Bound on per-capacity admission controllers; LRU-evicted beyond this.
    CONTROLLER_CACHE_LIMIT = 8

    def _controller(self, capacity: int) -> AdmissionController:
        controller = self._controllers.get(capacity)
        if controller is None:
            controller = AdmissionController(capacity)
            self._controllers[capacity] = controller
            while len(self._controllers) > self.CONTROLLER_CACHE_LIMIT:
                self._controllers.popitem(last=False)
        else:
            self._controllers.move_to_end(capacity)
        return controller

    def _grid(self, now: float, jobs: list[Job]) -> SlotGrid:
        """Planning grid covering every finite deadline from ``now``.

        When deadlines stretch past ``max_horizon`` slots the slot width is
        widened for this round instead of failing (coarser planning, same
        guarantees).
        """
        slot = self.context.slot_seconds
        deadlines = [j.spec.effective_deadline for j in jobs]
        finite = [d for d in deadlines if not math.isinf(d)]
        if finite:
            span = max(finite) - now
            if span > slot * self.max_horizon:
                slot = span / self.max_horizon
        return SlotGrid.for_jobs(
            now, deadlines, slot, max_horizon=self.max_horizon
        )

    def _planning_curve(self, job: Job):
        if self.planning_throughput is not None:
            return self.planning_throughput.curve(
                job.spec.model_name, job.spec.global_batch_size
            )
        return self.context.curve_for(job)

    def _infos(self, jobs: list[Job], grid: SlotGrid) -> list[PlanningJob]:
        """Planning views for every job, in order.

        With caches on, :meth:`_PlanningFrame.refresh` serves the whole
        call from the persistent views; the cache-disabled reference
        builds each view from scratch with :func:`planning_job`.
        """
        if cache_enabled():
            return self._frame.refresh(jobs, grid)
        capacity = self.context.total_gpus
        return [
            planning_job(
                job,
                self._planning_curve(job),
                grid,
                capacity,
                safety_margin=self.safety_margin,
                deadline_padding_s=self.deadline_padding_s,
            )
            for job in jobs
        ]
