"""The serverless front end (paper Section 3.1).

:class:`ElasticFlowPlatform` is the user-facing surface of the system: a
DL developer *submits a function* — model, hyper-parameters, termination
condition, deadline — and gets back a handle; the platform answers
admission immediately and manages all resources behind the scenes.  The
platform wraps the simulator in an interactive session, so jobs can be
submitted while earlier ones run — the shape of a real service, rather
than the replay-a-trace shape of the experiment harness.

Example::

    platform = ElasticFlowPlatform(ClusterSpec(n_nodes=2, gpus_per_node=8))
    handle = platform.submit(model_name="resnet50", global_batch_size=128,
                             max_iterations=60_000, deadline_in=3600.0)
    if handle.admitted:
        platform.run_until(platform.now + 7200.0)
        print(handle.status, handle.progress)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.cluster.topology import ClusterSpec
from repro.core.job import JobSpec, JobStatus
from repro.core.scheduler import ElasticFlowPolicy
from repro.errors import ConfigurationError, SchedulingError
from repro.profiles.throughput import ThroughputModel
from repro.sim.engine import Simulator
from repro.sim.executor import ElasticExecutor
from repro.sim.interface import SchedulerPolicy
from repro.sim.metrics import SimulationResult

__all__ = ["JobHandle", "ElasticFlowPlatform"]


@dataclass(frozen=True)
class JobHandle:
    """A submitted job, as seen by its owner."""

    job_id: str
    _platform: "ElasticFlowPlatform"

    @property
    def _job(self):
        job = self._platform._simulator.jobs.get(self.job_id)
        if job is None:
            raise SchedulingError(f"job {self.job_id!r} not yet processed")
        return job

    @property
    def status(self) -> JobStatus:
        return self._job.status

    @property
    def admitted(self) -> bool:
        """Whether the platform guaranteed this job's deadline."""
        return self._job.admission_time is not None

    @property
    def progress(self) -> float:
        """Fraction of the termination condition reached, in [0, 1]."""
        job = self._job
        return job.iterations_done / job.spec.max_iterations

    @property
    def gpus(self) -> int:
        return self._job.n_gpus

    @property
    def completion_time(self) -> float | None:
        return self._job.completion_time

    @property
    def met_deadline(self) -> bool:
        return self._job.met_deadline()


class ElasticFlowPlatform:
    """An interactive ElasticFlow deployment over a simulated cluster.

    Args:
        cluster: Cluster shape.
        policy: Scheduler; defaults to ElasticFlow with the recommended
            overhead-protection knobs.
        throughput: Profiled scaling curves (a default model if omitted).
        slot_seconds: Scheduling interval.
        executor: Scaling-overhead model.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        *,
        policy: SchedulerPolicy | None = None,
        throughput: ThroughputModel | None = None,
        slot_seconds: float = 600.0,
        executor: ElasticExecutor | None = None,
    ) -> None:
        self.cluster = cluster
        self._policy = policy or ElasticFlowPolicy(
            safety_margin=0.03,
            deadline_padding_s=60.0,
            stability_threshold=0.3,
        )
        self._simulator = Simulator(
            cluster,
            self._policy,
            [],
            throughput=throughput,
            slot_seconds=slot_seconds,
            executor=executor,
        )
        self._auto_ids = itertools.count(1)

    # ------------------------------------------------------------- clock
    @property
    def now(self) -> float:
        """Current platform time (seconds)."""
        return self._simulator.now

    def run_until(self, time: float) -> None:
        """Advance the platform clock, executing everything due."""
        self._simulator.run_until(time)

    def drain(self) -> SimulationResult:
        """Run until every submitted job has completed or been dropped."""
        return self._simulator.run()

    def results(self) -> SimulationResult:
        """Metrics for everything processed so far."""
        return self._simulator.result()

    # ------------------------------------------------------------ jobs API
    def submit(
        self,
        *,
        model_name: str,
        global_batch_size: int,
        max_iterations: int,
        deadline_in: float | None = None,
        job_id: str | None = None,
        user: str = "default",
    ) -> JobHandle:
        """Submit a training function (Section 3.1's serverless interface).

        Args:
            model_name: Model-zoo key of the DNN to train.
            global_batch_size: Training hyper-parameter; the platform owns
                the per-worker split.
            max_iterations: Termination condition.
            deadline_in: Seconds from *now* until the deadline; ``None``
                submits a best-effort job.
            job_id: Optional explicit id (auto-generated otherwise).
            user: Tenant, for operator policies.

        Returns:
            A handle whose ``admitted`` property answers the admission
            decision immediately.
        """
        if deadline_in is not None and not deadline_in > 0:  # NaN fails too
            raise ConfigurationError(
                f"deadline_in must be > 0 seconds, got {deadline_in}"
            )
        job_id = job_id or f"job-{next(self._auto_ids):05d}"
        spec = JobSpec(
            job_id=job_id,
            model_name=model_name,
            global_batch_size=global_batch_size,
            max_iterations=max_iterations,
            submit_time=self.now,
            deadline=None if deadline_in is None else self.now + deadline_in,
            user=user,
        )
        self._simulator.submit(spec)
        # Process the arrival immediately so admission is answered now.
        self._simulator.run_until(self.now)
        return JobHandle(job_id=job_id, _platform=self)

    def handle(self, job_id: str) -> JobHandle:
        """Re-attach to a previously submitted job."""
        if job_id not in self._simulator.jobs:
            raise SchedulingError(f"unknown job {job_id!r}")
        return JobHandle(job_id=job_id, _platform=self)

    # ---------------------------------------------------------- telemetry
    @property
    def gpus_in_use(self) -> int:
        return sum(
            job.n_gpus
            for job in self._simulator.jobs.values()
            if job.status is JobStatus.RUNNING
        )

    @property
    def active_jobs(self) -> list[str]:
        return sorted(
            job.job_id for job in self._simulator.jobs.values() if job.is_active
        )
