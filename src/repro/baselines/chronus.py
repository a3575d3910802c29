"""Chronus (SoCC 2021) — deadline-aware but non-elastic.

Chronus admits SLO jobs only when their deadline is attainable and schedules
them with lease-based reservations at their *requested* GPU count; it cannot
grow or shrink a job.  We express that by running the same progressive-fill
feasibility machinery as ElasticFlow but with a single candidate size per
job — the plan either reserves the requested block in a slot or nothing.
Best-effort jobs are packed FIFO into whatever is left.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import QueueBasedPolicy
from repro.core.admission import AdmissionController, PlanningJob
from repro.core.job import Job
from repro.core.slots import SlotGrid
from repro.profiles.throughput import ScalingCurve

__all__ = ["ChronusPolicy"]


def fixed_size_info(
    job: Job, curve: ScalingCurve, grid: SlotGrid, capacity: int, size: int
) -> PlanningJob:
    """Planning view of a job that can only ever run at one size."""
    throughput = curve.effective_throughput(size)
    throughput_table = np.zeros(capacity + 1, dtype=np.float64)
    size_table = np.zeros(capacity + 1, dtype=np.int64)
    throughput_table[size:] = throughput
    size_table[size:] = size
    return PlanningJob(
        job_id=job.job_id,
        remaining_iterations=job.remaining_iterations,
        deadline=job.spec.effective_deadline,
        weights=grid.weights_until(job.spec.effective_deadline),
        throughput_table=throughput_table,
        size_table=size_table,
        sizes=[size],
        best_effort=job.spec.best_effort,
    )


class ChronusPolicy(QueueBasedPolicy):
    """Deadline-feasibility admission + fixed-size lease scheduling."""

    name = "chronus"

    def __init__(self, *, max_horizon: int = 2048) -> None:
        super().__init__()
        self.max_horizon = max_horizon

    # -------------------------------------------------------------- helpers
    def _grid(self, now: float, jobs: list[Job]) -> SlotGrid:
        return SlotGrid.covering(
            now,
            [j.spec.effective_deadline for j in jobs],
            self.context.slot_seconds,
            max_horizon=self.max_horizon,
        )

    def _info(self, job: Job, grid: SlotGrid) -> PlanningJob:
        return fixed_size_info(
            job,
            self.context.curve_for(job),
            grid,
            self.context.total_gpus,
            self.size_of(job, 0.0),
        )

    # ------------------------------------------------------------ interface
    def admit(self, job: Job, active: list[Job], now: float) -> bool:
        """Admit only if the deadline is attainable at the requested size."""
        if job.spec.best_effort:
            return True
        if self.context.usable_gpus < 1:
            return False
        grid = self._grid(now, active + [job])
        controller = AdmissionController(self.context.usable_gpus)
        candidate = self._info(job, grid)
        admitted = [self._info(j, grid) for j in active if not j.spec.best_effort]
        return controller.try_admit(candidate, admitted, grid).admitted

    def allocate(self, active: list[Job], now: float) -> dict[str, int]:
        """Fixed-size lease reservations plus FIFO-packed leftovers."""
        if not active:
            return {}
        if self.context.usable_gpus < 1:
            return {job.job_id: 0 for job in active}
        grid = self._grid(now, active)
        slo = [j for j in active if not j.spec.best_effort]
        best_effort = [j for j in active if j.spec.best_effort]
        controller = AdmissionController(self.context.usable_gpus)
        infos = [self._info(j, grid) for j in slo]
        result = controller.plan_shares(infos, grid)
        decisions = {
            info.job_id: int(result.plans[info.job_id][0]) for info in infos
        }
        free = self.context.usable_gpus - sum(decisions.values())
        # Degraded SLO jobs (deadline already lost) and best-effort jobs are
        # packed FIFO into whatever the reservations left over.
        leftovers = [j for j in slo if j.job_id in result.degraded] + best_effort
        for job in sorted(leftovers, key=lambda j: (j.spec.submit_time, j.job_id)):
            size = self.size_of(job, now)
            if size <= free:
                decisions[job.job_id] = size
                free -= size
            else:
                decisions[job.job_id] = 0
        return decisions
