"""End-to-end tests of the discrete-event engine with the ElasticFlow policy.

The central property: **when ElasticFlow admits a job, the job meets its
deadline** (Section 3.1's performance guarantee).  With the executor
disabled this must hold exactly; with overheads enabled a small safety
margin restores it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec
from repro.core import ElasticFlowPolicy, JobSpec, JobStatus
from repro.errors import ConfigurationError, SchedulingError, SimulationError
from repro.profiles import ThroughputModel
from repro.sim import ElasticExecutor, SchedulerPolicy, Simulator

SMALL = ClusterSpec(n_nodes=2, gpus_per_node=8)
MODEL = ThroughputModel()


def spec(i, submit=0.0, deadline_rel=3600.0, iters=20000, model="resnet50", batch=128, best_effort=False):
    return JobSpec(
        job_id=f"job-{i}",
        model_name=model,
        global_batch_size=batch,
        max_iterations=iters,
        submit_time=submit,
        deadline=None if best_effort else submit + deadline_rel,
    )


def run(specs, policy=None, cluster=SMALL, executor=None, **kwargs):
    sim = Simulator(
        cluster,
        policy or ElasticFlowPolicy(),
        specs,
        throughput=MODEL,
        executor=executor or ElasticExecutor.disabled(),
        **kwargs,
    )
    return sim.run()


class TestBasicRuns:
    def test_single_job_completes_on_time(self):
        result = run([spec(0)])
        assert result.deadline_satisfactory_ratio == 1.0
        assert result.completed_count == 1

    def test_impossible_job_is_dropped(self):
        # One iteration per ~24 ms; 10M iterations can't finish in a minute.
        result = run([spec(0, deadline_rel=60.0, iters=10_000_000)])
        assert result.dropped_count == 1
        assert result.deadline_satisfactory_ratio == 0.0

    def test_best_effort_job_never_dropped(self):
        result = run([spec(0, iters=10_000_000, best_effort=True)])
        assert result.dropped_count == 0
        assert result.completed_count == 1

    def test_duplicate_ids_rejected(self):
        with pytest.raises(SimulationError):
            run([spec(0), spec(0)])

    def test_outcome_fields_populated(self):
        result = run([spec(0)])
        outcome = result.outcomes[0]
        assert outcome.admitted
        assert outcome.completion_time is not None
        assert outcome.jct > 0

    def test_events_processed_counted(self):
        result = run([spec(0)])
        assert result.events_processed >= 2


class TestElasticBehaviour:
    def test_lone_job_scales_out(self):
        """With an empty cluster the single job gets many GPUs."""
        result = run([spec(0, deadline_rel=7 * 24 * 3600.0)])
        assert result.timeline is not None
        peak = max(s.gpus_in_use for s in result.timeline.samples)
        assert peak >= 8

    def test_contention_shrinks_allocations(self):
        specs = [spec(i, submit=0.0, deadline_rel=7200.0) for i in range(8)]
        result = run(specs)
        assert result.deadline_satisfactory_ratio == 1.0
        # At some instant the cluster must have been shared.
        assert any(s.running_jobs >= 2 for s in result.timeline.samples)

    def test_scale_events_recorded(self):
        specs = [spec(0, deadline_rel=7200.0), spec(1, submit=120.0, deadline_rel=7200.0)]
        result = run(specs)
        assert any(o.scale_events > 0 for o in result.outcomes)

    def test_timeline_optional(self):
        result = run([spec(0)], record_timeline=False)
        assert result.timeline is None

    def test_gpus_never_exceed_capacity(self):
        specs = [spec(i, submit=60.0 * i, deadline_rel=5400.0) for i in range(6)]
        result = run(specs)
        assert all(s.gpus_in_use <= 16 for s in result.timeline.samples)


class TestOverheads:
    def test_overheads_delay_completion(self):
        fast = run([spec(0), spec(1, submit=300.0)])
        slow = run(
            [spec(0), spec(1, submit=300.0)],
            executor=ElasticExecutor(),
        )
        assert slow.outcome_of("job-0").completion_time >= fast.outcome_of(
            "job-0"
        ).completion_time

    def test_guarantee_holds_with_margin(self):
        specs = [spec(i, submit=200.0 * i, deadline_rel=5400.0) for i in range(6)]
        result = run(
            specs,
            policy=ElasticFlowPolicy(safety_margin=0.05),
            executor=ElasticExecutor(),
        )
        admitted = [o for o in result.outcomes if o.admitted]
        assert all(o.met_deadline for o in admitted)


class TestPolicyValidation:
    class OverAllocator(SchedulerPolicy):
        name = "over"

        def allocate(self, active, now):
            return {job.job_id: 1024 for job in active}

    class NonPowerOfTwo(SchedulerPolicy):
        name = "odd"

        def allocate(self, active, now):
            return {job.job_id: 3 for job in active}

    class Starver(SchedulerPolicy):
        name = "starver"

        def allocate(self, active, now):
            return {}

    def test_over_allocation_rejected(self):
        with pytest.raises(SchedulingError):
            run([spec(0)], policy=self.OverAllocator())

    def test_non_power_of_two_rejected(self):
        with pytest.raises(SchedulingError):
            run([spec(0)], policy=self.NonPowerOfTwo())

    def test_starvation_hits_event_guard(self):
        with pytest.raises(SimulationError):
            run([spec(0)], policy=self.Starver(), max_events=500)

    def test_unbound_policy_rejected(self):
        policy = ElasticFlowPolicy()
        with pytest.raises(ConfigurationError):
            _ = policy.context

    @pytest.mark.parametrize("slot_seconds", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_slot_width_rejected_at_construction(self, slot_seconds):
        policy = ElasticFlowPolicy()
        with pytest.raises(ConfigurationError):
            Simulator(
                SMALL,
                policy,
                [spec(0, iters=1000)],
                throughput=MODEL,
                slot_seconds=slot_seconds,
            )
        with pytest.raises(ConfigurationError):
            _ = policy.context  # rejected before the policy was bound


class TestGuaranteeProperty:
    """The paper's performance guarantee, checked on random workloads."""

    @settings(max_examples=15, deadline=None)
    @given(
        n_jobs=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_admitted_jobs_always_meet_deadlines(self, n_jobs, seed):
        rng = np.random.default_rng(seed)
        models = [("resnet50", 128), ("vgg16", 64), ("bert", 64), ("gpt2", 128)]
        specs = []
        for i in range(n_jobs):
            name, batch = models[rng.integers(len(models))]
            # Work sized to 10-60 minutes on one GPU.
            one_gpu = MODEL.curve(name, batch).throughput(1)
            seconds = float(rng.uniform(600, 3600))
            specs.append(
                JobSpec(
                    job_id=f"job-{i}",
                    model_name=name,
                    global_batch_size=batch,
                    max_iterations=max(1, int(one_gpu * seconds)),
                    submit_time=float(rng.uniform(0, 1800)),
                    deadline=None,
                )
            )
            # Deadline tightness lambda in [0.5, 1.5] of single-GPU duration.
            lam = float(rng.uniform(0.5, 1.5))
            specs[-1] = JobSpec(
                job_id=specs[-1].job_id,
                model_name=specs[-1].model_name,
                global_batch_size=specs[-1].global_batch_size,
                max_iterations=specs[-1].max_iterations,
                submit_time=specs[-1].submit_time,
                deadline=specs[-1].submit_time + lam * seconds,
            )
        result = run(specs, slot_seconds=120.0)
        for outcome in result.outcomes:
            if outcome.admitted:
                assert outcome.met_deadline, (
                    f"{outcome.job_id} admitted but missed: "
                    f"finished {outcome.completion_time}, due {outcome.deadline}"
                )
        assert result.completed_count + result.dropped_count == n_jobs
