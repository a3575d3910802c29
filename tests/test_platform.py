"""Tests for the interactive serverless front end."""

import pytest

from repro.cluster import ClusterSpec
from repro.core import JobStatus
from repro.errors import ConfigurationError, SchedulingError, SimulationError
from repro.platform import ElasticFlowPlatform
from repro.profiles import ThroughputModel
from repro.sim import ElasticExecutor

MODEL = ThroughputModel()


def platform(**kwargs) -> ElasticFlowPlatform:
    kwargs.setdefault("throughput", MODEL)
    kwargs.setdefault("executor", ElasticExecutor.disabled())
    return ElasticFlowPlatform(ClusterSpec(n_nodes=2, gpus_per_node=8), **kwargs)


class TestSubmission:
    def test_admission_answered_immediately(self):
        service = platform()
        handle = service.submit(
            model_name="resnet50",
            global_batch_size=128,
            max_iterations=10_000,
            deadline_in=3600.0,
        )
        assert handle.admitted
        assert handle.status in (JobStatus.ADMITTED, JobStatus.RUNNING)

    def test_infeasible_job_dropped_immediately(self):
        service = platform()
        handle = service.submit(
            model_name="vgg16",
            global_batch_size=256,
            max_iterations=50_000_000,
            deadline_in=60.0,
        )
        assert not handle.admitted
        assert handle.status is JobStatus.DROPPED

    def test_best_effort_always_accepted(self):
        service = platform()
        handle = service.submit(
            model_name="gpt2",
            global_batch_size=128,
            max_iterations=100_000_000,
        )
        assert handle.admitted

    def test_auto_ids_unique(self):
        service = platform()
        first = service.submit(
            model_name="bert", global_batch_size=64, max_iterations=100
        )
        second = service.submit(
            model_name="bert", global_batch_size=64, max_iterations=100
        )
        assert first.job_id != second.job_id

    def test_explicit_id_respected(self):
        service = platform()
        handle = service.submit(
            model_name="bert",
            global_batch_size=64,
            max_iterations=100,
            job_id="my-job",
        )
        assert handle.job_id == "my-job"
        assert service.handle("my-job").job_id == "my-job"

    def test_duplicate_id_rejected(self):
        service = platform()
        service.submit(
            model_name="bert", global_batch_size=64,
            max_iterations=100, job_id="dup",
        )
        with pytest.raises(SimulationError):
            service.submit(
                model_name="bert", global_batch_size=64,
                max_iterations=100, job_id="dup",
            )

    def test_invalid_deadline_rejected(self):
        with pytest.raises(ConfigurationError):
            platform().submit(
                model_name="bert", global_batch_size=64,
                max_iterations=100, deadline_in=0.0,
            )

    def test_nan_deadline_rejected(self):
        with pytest.raises(ConfigurationError):
            platform().submit(
                model_name="bert", global_batch_size=64,
                max_iterations=100, deadline_in=float("nan"),
            )

    def test_infinite_deadline_is_best_effort(self):
        handle = platform().submit(
            model_name="bert", global_batch_size=64,
            max_iterations=100, deadline_in=float("inf"),
        )
        assert handle.admitted

    def test_unknown_handle_rejected(self):
        with pytest.raises(SchedulingError):
            platform().handle("ghost")


class TestInteractiveSession:
    def test_progress_advances_with_clock(self):
        service = platform()
        handle = service.submit(
            model_name="resnet50",
            global_batch_size=128,
            max_iterations=100_000,
            deadline_in=7200.0,
        )
        assert handle.progress == 0.0
        service.run_until(600.0)
        assert 0.0 < handle.progress <= 1.0

    def test_jobs_submitted_mid_session(self):
        service = platform()
        first = service.submit(
            model_name="resnet50", global_batch_size=128,
            max_iterations=20_000, deadline_in=3600.0,
        )
        service.run_until(300.0)
        second = service.submit(
            model_name="bert", global_batch_size=64,
            max_iterations=5_000, deadline_in=3600.0,
        )
        result = service.drain()
        assert first.met_deadline and second.met_deadline
        assert result.completed_count == 2

    def test_clock_is_monotone(self):
        service = platform()
        service.run_until(100.0)
        with pytest.raises(SimulationError):
            service.run_until(50.0)
        assert service.now == 100.0

    def test_telemetry(self):
        service = platform()
        handle = service.submit(
            model_name="resnet50", global_batch_size=128,
            max_iterations=200_000, deadline_in=36_000.0,
        )
        service.run_until(60.0)
        assert service.gpus_in_use > 0
        assert handle.job_id in service.active_jobs
        assert handle.gpus == service.gpus_in_use  # only job on the cluster

    def test_drain_completes_everything(self):
        service = platform()
        for _ in range(4):
            service.submit(
                model_name="inceptionv3", global_batch_size=128,
                max_iterations=5_000, deadline_in=7200.0,
            )
        result = service.drain()
        assert result.completed_count + result.dropped_count == 4
        assert service.active_jobs == []

    def test_results_snapshot_mid_session(self):
        service = platform()
        service.submit(
            model_name="bert", global_batch_size=64,
            max_iterations=50_000, deadline_in=36_000.0,
        )
        service.run_until(30.0)
        snapshot = service.results()
        assert snapshot.admitted_count == 1
        assert snapshot.completed_count == 0


class TestGuaranteeThroughTheFrontDoor:
    def test_every_admitted_job_meets_its_deadline(self):
        import numpy as np

        service = platform()
        rng = np.random.default_rng(9)
        handles = []
        clock = 0.0
        for i in range(10):
            clock += float(rng.uniform(0, 600))
            service.run_until(clock)
            one = MODEL.curve("resnet50", 128).throughput(1)
            seconds = float(rng.uniform(600, 2400))
            handles.append(
                service.submit(
                    model_name="resnet50",
                    global_batch_size=128,
                    max_iterations=max(1, int(one * seconds)),
                    deadline_in=float(rng.uniform(0.5, 1.5)) * seconds,
                )
            )
        service.drain()
        for handle in handles:
            if handle.admitted:
                assert handle.met_deadline
