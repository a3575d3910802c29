"""Trace data model.

A trace is the minimal record the paper's pipeline consumes: per job, the
submission time, the GPU count the user asked for, and how long the job ran
at that count.  Model identity, iteration counts, and deadlines are layered
on top by :mod:`repro.traces.workload`, exactly as the paper does with its
production traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import TraceError
from repro.numeric import is_power_of_two

__all__ = ["TraceJob", "Trace"]


@dataclass(frozen=True)
class TraceJob:
    """One row of a workload trace.

    Attributes:
        job_id: Unique id within the trace.
        submit_time: Seconds since trace start.
        n_gpus: GPU count the job ran on (power of two).
        duration_s: Runtime at that GPU count, in seconds.
    """

    job_id: str
    submit_time: float
    n_gpus: int
    duration_s: float

    def __post_init__(self) -> None:
        if not self.job_id:
            raise TraceError("job_id must be non-empty")
        # NaN compares false against everything, so the range checks
        # alone would admit it (and an unsortable trace with it).
        if not math.isfinite(self.submit_time) or self.submit_time < 0:
            raise TraceError(
                f"submit_time must be finite and >= 0, got {self.submit_time}"
            )
        if not is_power_of_two(self.n_gpus):
            raise TraceError(
                f"n_gpus must be a positive power of two, got {self.n_gpus}"
            )
        if not math.isfinite(self.duration_s) or self.duration_s <= 0:
            raise TraceError(
                f"duration_s must be finite and > 0, got {self.duration_s}"
            )

    @property
    def gpu_seconds(self) -> float:
        return self.n_gpus * self.duration_s


@dataclass
class Trace:
    """A named collection of trace jobs plus the cluster they ran on.

    Attributes:
        name: Trace identifier (e.g. ``cluster-3`` or ``philly``).
        cluster_gpus: Size of the source cluster.
        jobs: Rows, kept sorted by submission time.
    """

    name: str
    cluster_gpus: int
    jobs: list[TraceJob] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name:
            raise TraceError("trace name must be non-empty")
        if self.cluster_gpus < 1:
            raise TraceError(
                f"cluster_gpus must be >= 1, got {self.cluster_gpus}"
            )
        ids = [job.job_id for job in self.jobs]
        if len(ids) != len(set(ids)):
            raise TraceError(f"trace {self.name!r} contains duplicate job ids")
        self.jobs = sorted(self.jobs, key=lambda j: (j.submit_time, j.job_id))

    def __len__(self) -> int:
        return len(self.jobs)

    @property
    def span_s(self) -> float:
        """Seconds between the first and last submission."""
        if not self.jobs:
            return 0.0
        return self.jobs[-1].submit_time - self.jobs[0].submit_time

    @property
    def total_gpu_seconds(self) -> float:
        return sum(job.gpu_seconds for job in self.jobs)

    def load_factor(self) -> float:
        """Offered load: requested GPU-time over available GPU-time.

        Values near or above 1 mean the cluster cannot serve every job at
        its requested size before more work arrives.
        """
        if not self.jobs:
            return 0.0
        horizon = self.jobs[-1].submit_time + max(j.duration_s for j in self.jobs)
        if horizon <= 0:
            return 0.0
        return self.total_gpu_seconds / (self.cluster_gpus * horizon)

    def head(self, n: int) -> "Trace":
        """A new trace containing only the first ``n`` submissions."""
        if n < 0:
            raise TraceError(f"n must be >= 0, got {n}")
        return Trace(
            name=f"{self.name}[:{n}]",
            cluster_gpus=self.cluster_gpus,
            jobs=self.jobs[:n],
        )
