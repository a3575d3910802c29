"""Tests for the serverless job model."""

import math

import pytest

from repro.core import Job, JobSpec, JobStatus
from repro.errors import ConfigurationError, SchedulingError


def spec(**overrides) -> JobSpec:
    defaults = dict(
        job_id="job-1",
        model_name="resnet50",
        global_batch_size=128,
        max_iterations=1000,
        submit_time=0.0,
        deadline=3600.0,
    )
    defaults.update(overrides)
    return JobSpec(**defaults)


class TestJobSpec:
    def test_best_effort_when_deadline_none(self):
        job = spec(deadline=None)
        assert job.best_effort
        assert job.effective_deadline == math.inf

    def test_best_effort_when_deadline_inf(self):
        assert spec(deadline=math.inf).best_effort

    def test_slo_job_not_best_effort(self):
        job = spec()
        assert not job.best_effort
        assert job.effective_deadline == 3600.0
        assert job.relative_deadline == 3600.0

    def test_deadline_before_submit_rejected(self):
        with pytest.raises(ConfigurationError):
            spec(submit_time=100.0, deadline=50.0)

    def test_empty_id_rejected(self):
        with pytest.raises(ConfigurationError):
            spec(job_id="")

    def test_zero_iterations_rejected(self):
        with pytest.raises(ConfigurationError):
            spec(max_iterations=0)

    def test_non_power_of_two_request_rejected(self):
        with pytest.raises(ConfigurationError):
            spec(requested_gpus=3)

    def test_negative_submit_rejected(self):
        with pytest.raises(ConfigurationError):
            spec(submit_time=-1.0)

    @pytest.mark.parametrize("submit_time", [math.nan, math.inf])
    def test_non_finite_submit_rejected(self, submit_time):
        with pytest.raises(ConfigurationError):
            spec(submit_time=submit_time, deadline=None)

    def test_nan_deadline_rejected(self):
        with pytest.raises(ConfigurationError):
            spec(deadline=math.nan)


class TestJobLifecycle:
    def test_initial_state(self):
        job = Job(spec=spec())
        assert job.status is JobStatus.PENDING
        assert job.remaining_iterations == 1000
        assert not job.is_finished
        assert not job.is_active

    def test_admit_then_complete(self):
        job = Job(spec=spec())
        job.mark_admitted(5.0)
        assert job.status is JobStatus.ADMITTED
        assert job.is_active
        job.iterations_done = 1000.0
        job.mark_completed(100.0)
        assert job.status is JobStatus.COMPLETED
        assert job.completion_time == 100.0
        assert job.met_deadline()

    def test_late_completion_misses_deadline(self):
        job = Job(spec=spec(deadline=50.0))
        job.mark_admitted(0.0)
        job.mark_completed(60.0)
        assert not job.met_deadline()

    def test_unfinished_job_never_met_deadline(self):
        assert not Job(spec=spec()).met_deadline()

    def test_drop(self):
        job = Job(spec=spec())
        job.mark_dropped(1.0)
        assert job.status is JobStatus.DROPPED
        assert job.drop_time == 1.0

    def test_invalid_transitions_rejected(self):
        job = Job(spec=spec())
        job.mark_admitted(0.0)
        with pytest.raises(SchedulingError):
            job.mark_admitted(1.0)
        with pytest.raises(SchedulingError):
            job.mark_dropped(1.0)
        job.mark_completed(2.0)
        with pytest.raises(SchedulingError):
            job.mark_completed(3.0)


class TestProgress:
    def test_advance_accrues_iterations(self):
        job = Job(spec=spec())
        job.advance(seconds=10.0, iterations_per_second=5.0, now=10.0)
        assert job.iterations_done == 50.0
        assert job.remaining_iterations == 950.0

    def test_advance_clamps_at_max(self):
        job = Job(spec=spec(max_iterations=100))
        job.advance(seconds=1000.0, iterations_per_second=5.0, now=1000.0)
        assert job.iterations_done == 100.0
        assert job.is_finished

    def test_advance_excludes_stalled_time(self):
        job = Job(spec=spec())
        job.stall_until = 5.0
        # Window [0, 10]: the first 5 seconds are a scaling stall.
        job.advance(seconds=10.0, iterations_per_second=2.0, now=10.0)
        assert job.iterations_done == pytest.approx(10.0)

    def test_advance_fully_stalled_window(self):
        job = Job(spec=spec())
        job.stall_until = 100.0
        job.advance(seconds=10.0, iterations_per_second=2.0, now=10.0)
        assert job.iterations_done == 0.0

    def test_advance_negative_rejected(self):
        with pytest.raises(SchedulingError):
            Job(spec=spec()).advance(-1.0, 1.0, now=0.0)
