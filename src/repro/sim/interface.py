"""The contract between the simulator engine and scheduler policies.

Every scheduler in this repository — ElasticFlow itself and all six
baselines — implements :class:`SchedulerPolicy`.  The engine owns job
state, placement, progress accounting, and overheads; a policy only decides
(i) whether an arriving job is kept, and (ii) how many GPUs each active job
holds until the next scheduling event.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cluster.topology import ClusterSpec
from repro.errors import ConfigurationError
from repro.profiles.throughput import ScalingCurve, ThroughputModel

if TYPE_CHECKING:  # imported lazily to avoid a package-level import cycle
    from repro.core.job import Job

__all__ = ["PolicyContext", "SchedulerPolicy"]


@dataclass
class PolicyContext:
    """Static facts a policy may consult when making decisions.

    Attributes:
        cluster: Shape of the simulated cluster.
        throughput: Source of scaling curves (identical to what the engine
            uses to advance job progress, mirroring the paper's pre-run
            profiling step).
        slot_seconds: Planning-slot width, which is also the periodic
            re-scheduling interval of the engine.
    """

    cluster: ClusterSpec
    throughput: ThroughputModel
    slot_seconds: float = 300.0
    usable_gpus: int = 0  # maintained by the engine; shrinks on node failure

    def __post_init__(self) -> None:
        # Written as ``not (...)`` so NaN, which fails every comparison, is
        # rejected too; an infinite slot would silently drop every job.
        if not 0 < self.slot_seconds < math.inf:
            raise ConfigurationError(
                f"slot_seconds must be finite and > 0, got {self.slot_seconds}"
            )
        if self.usable_gpus <= 0:
            self.usable_gpus = self.cluster.total_gpus

    @property
    def total_gpus(self) -> int:
        return self.cluster.total_gpus

    def curve_for(self, job: Job) -> ScalingCurve:
        """The job's scaling curve under compact placement."""
        return self.throughput.curve(
            job.spec.model_name, job.spec.global_batch_size
        )


class SchedulerPolicy(abc.ABC):
    """Base class for all schedulers driven by the simulator."""

    #: Human-readable policy name used in reports and figures.
    name: str = "unnamed"

    def __init__(self) -> None:
        self._context: PolicyContext | None = None

    @property
    def context(self) -> PolicyContext:
        if self._context is None:
            raise ConfigurationError(
                f"policy {self.name!r} is not bound to a simulator"
            )
        return self._context

    def bind(self, context: PolicyContext) -> None:
        """Attach the policy to a cluster; called once by the engine."""
        self._context = context

    def admit(self, job: Job, active: list[Job], now: float) -> bool:
        """Decide whether to keep an arriving job.

        Returning ``False`` drops the job permanently (only deadline-aware
        admission-controlled policies ever do).  The default keeps
        everything, matching the non-admission baselines.
        """
        return True

    @abc.abstractmethod
    def allocate(self, active: list[Job], now: float) -> dict[str, int]:
        """GPU allocation for every active job until the next event.

        Args:
            active: Jobs that are admitted or running, in submission order.
            now: Current simulation time.

        Returns:
            Mapping of job id to GPU count for the next interval.  Jobs
            omitted from the mapping are treated as suspended (0 GPUs).
            The counts must be powers of two and sum to at most the cluster
            size; the engine validates this.
        """
