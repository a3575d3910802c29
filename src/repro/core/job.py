"""The serverless job interface and runtime job state (paper Section 3.1).

A :class:`JobSpec` is what a DL developer submits: the model, the training
hyper-parameters, a termination condition expressed as a maximum number of
iterations, and a deadline.  Crucially it does *not* name a GPU count — that
is the platform's problem.  (``requested_gpus`` exists only so the
server-centric baseline schedulers have the number they would have been
given; ElasticFlow itself never reads it.)
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import ConfigurationError, SchedulingError
from repro.numeric import is_power_of_two

__all__ = ["JobStatus", "JobSpec", "Job"]


class JobStatus(enum.Enum):
    """Lifecycle of a submitted job."""

    PENDING = "pending"  # submitted, not yet considered
    ADMITTED = "admitted"  # passed admission control, possibly queued
    RUNNING = "running"  # currently holds GPUs
    COMPLETED = "completed"  # reached its termination condition
    DROPPED = "dropped"  # rejected by admission control


@dataclass(frozen=True)
class JobSpec:
    """A training job as submitted through the serverless interface.

    Attributes:
        job_id: Unique identifier.
        model_name: Model zoo key of the DNN to train.
        global_batch_size: The *global* batch size; the platform derives the
            local batch size from the worker count.
        max_iterations: Termination condition — the job completes after this
            many iterations.
        submit_time: Simulation time of submission, in seconds.
        deadline: Absolute point in time by which the job must finish, or
            ``None``/``inf`` for a best-effort job (Section 4.4).
        requested_gpus: The GPU count a server-centric platform would have
            been told; consumed only by the non-elastic baselines.
        user: Submitting tenant — consumed by operator admission policies
            such as per-user quotas (Section 4.4).
    """

    job_id: str
    model_name: str
    global_batch_size: int
    max_iterations: int
    submit_time: float = 0.0
    deadline: float | None = None
    requested_gpus: int = 1
    user: str = "default"

    def __post_init__(self) -> None:
        if not self.job_id:
            raise ConfigurationError("job_id must be non-empty")
        if self.global_batch_size < 1:
            raise ConfigurationError(
                f"global_batch_size must be >= 1, got {self.global_batch_size}"
            )
        if self.max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if not (math.isfinite(self.submit_time) and self.submit_time >= 0):
            raise ConfigurationError(
                f"submit_time must be finite and >= 0, got {self.submit_time}"
            )
        if self.deadline is not None and math.isnan(self.deadline):
            raise ConfigurationError("deadline must not be NaN")
        if self.deadline is not None and self.deadline <= self.submit_time:
            raise ConfigurationError(
                f"deadline {self.deadline} must be after submit_time "
                f"{self.submit_time}"
            )
        if not is_power_of_two(self.requested_gpus):
            raise ConfigurationError(
                f"requested_gpus must be a positive power of two, "
                f"got {self.requested_gpus}"
            )
        if not self.user:
            raise ConfigurationError("user must be non-empty")

    @cached_property
    def best_effort(self) -> bool:
        """Whether the job has no deadline (Section 4.4)."""
        return self.deadline is None or math.isinf(self.deadline)

    @cached_property
    def effective_deadline(self) -> float:
        """The deadline as a float, with best-effort mapped to ``inf``."""
        return math.inf if self.best_effort else float(self.deadline)

    @property
    def relative_deadline(self) -> float:
        """Seconds between submission and deadline."""
        return self.effective_deadline - self.submit_time


@dataclass
class Job:
    """Mutable runtime state of one submitted job.

    Attributes:
        spec: The immutable submission.
        status: Current lifecycle state.
        iterations_done: Training progress, in (fractional) iterations.
        n_gpus: GPUs currently allocated (0 when suspended or queued).
        stall_until: Time before which the job makes no progress because a
            scaling/migration/checkpoint operation is in flight.
        completion_time: Set when the job completes.
        admission_time: Set when the job passes admission control.
        drop_time: Set when the job is dropped.
        scale_events: How many times the allocation changed while running.
        gpu_seconds: Attained service — GPU-time consumed so far (drives
            Tiresias' least-attained-service priority).
        checkpointed_iterations: Progress captured by the job's most recent
            checkpoint (every scaling event checkpoints, Section 5).  An
            unplanned node failure rolls the job back to this point.
    """

    spec: JobSpec
    status: JobStatus = JobStatus.PENDING
    iterations_done: float = 0.0
    n_gpus: int = 0
    stall_until: float = 0.0
    completion_time: float | None = None
    admission_time: float | None = None
    drop_time: float | None = None
    scale_events: int = field(default=0)
    gpu_seconds: float = 0.0
    checkpointed_iterations: float = 0.0

    # ----------------------------------------------------------- identity
    @property
    def job_id(self) -> str:
        return self.spec.job_id

    # ----------------------------------------------------------- progress
    @property
    def remaining_iterations(self) -> float:
        return max(0.0, self.spec.max_iterations - self.iterations_done)

    @property
    def is_finished(self) -> bool:
        return self.remaining_iterations <= 0.0

    @property
    def is_active(self) -> bool:
        """Whether the job still needs scheduling attention."""
        return self.status in (JobStatus.ADMITTED, JobStatus.RUNNING)

    def advance(self, seconds: float, iterations_per_second: float, now: float) -> None:
        """Accrue training progress over a window ending at ``now``.

        Stalled intervals (scaling overhead) are excluded from the window.

        Args:
            seconds: Wall-clock length of the window.
            iterations_per_second: Throughput held during the window.
            now: Simulation time at the *end* of the window.
        """
        if seconds < 0:
            raise SchedulingError(f"cannot advance by {seconds} seconds")
        start = now - seconds
        productive = seconds - max(0.0, min(self.stall_until, now) - start)
        if productive < 0:
            raise SchedulingError(
                f"job {self.job_id}: stall accounting produced negative time"
            )
        self.iterations_done = min(
            float(self.spec.max_iterations),
            self.iterations_done + productive * iterations_per_second,
        )
        self.gpu_seconds += productive * self.n_gpus

    def met_deadline(self) -> bool:
        """Whether the job finished on time (False while unfinished)."""
        if self.completion_time is None:
            return False
        return self.completion_time <= self.spec.effective_deadline

    def mark_admitted(self, now: float) -> None:
        if self.status is not JobStatus.PENDING:
            raise SchedulingError(
                f"job {self.job_id} cannot be admitted from {self.status}"
            )
        self.status = JobStatus.ADMITTED
        self.admission_time = now

    def mark_dropped(self, now: float) -> None:
        if self.status is not JobStatus.PENDING:
            raise SchedulingError(
                f"job {self.job_id} cannot be dropped from {self.status}"
            )
        self.status = JobStatus.DROPPED
        self.drop_time = now

    def mark_completed(self, now: float) -> None:
        if not self.is_active:
            raise SchedulingError(
                f"job {self.job_id} cannot complete from {self.status}"
            )
        self.status = JobStatus.COMPLETED
        self.completion_time = now
        self.n_gpus = 0
