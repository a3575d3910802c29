"""Unit tests for ElasticFlowPolicy internals (grid, hysteresis, reserves)."""

import math

import pytest

from repro.cluster import ClusterSpec
from repro.core import ElasticFlowPolicy, Job, JobSpec
from repro.errors import ConfigurationError
from repro.profiles import ScaledThroughputModel, ThroughputModel
from repro.sim import PolicyContext

MODEL = ThroughputModel()
SMALL = ClusterSpec(n_nodes=2, gpus_per_node=8)


def bound(policy: ElasticFlowPolicy, slot_seconds: float = 600.0) -> ElasticFlowPolicy:
    policy.bind(PolicyContext(cluster=SMALL, throughput=MODEL, slot_seconds=slot_seconds))
    return policy


def job(i, submit=0.0, deadline_rel=3600.0, iters=10_000, n_gpus=0,
        best_effort=False, model="resnet50", batch=128):
    runtime = Job(
        spec=JobSpec(
            job_id=f"j{i}",
            model_name=model,
            global_batch_size=batch,
            max_iterations=iters,
            submit_time=submit,
            deadline=None if best_effort else submit + deadline_rel,
        )
    )
    runtime.mark_admitted(submit)
    runtime.n_gpus = n_gpus
    return runtime


class TestConstruction:
    def test_invalid_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            ElasticFlowPolicy(safety_margin=-0.1)
        with pytest.raises(ConfigurationError):
            ElasticFlowPolicy(deadline_padding_s=-1.0)
        with pytest.raises(ConfigurationError):
            ElasticFlowPolicy(max_horizon=0)
        with pytest.raises(ConfigurationError):
            ElasticFlowPolicy(stability_threshold=-0.1)
        with pytest.raises(ConfigurationError):
            ElasticFlowPolicy(failure_reserve_gpus=-1)

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("safety_margin", math.nan),
            ("safety_margin", math.inf),
            ("deadline_padding_s", math.nan),
            ("stability_threshold", math.nan),
        ],
    )
    def test_nan_knobs_and_infinite_margin_rejected(self, knob, value):
        # NaN fails every comparison, so a bare ``< 0`` check let it
        # through: a NaN margin admitted nothing, a NaN padding admitted
        # jobs that then missed, a NaN threshold froze every allocation.
        with pytest.raises(ConfigurationError):
            ElasticFlowPolicy(**{knob: value})

    def test_infinite_padding_still_accepted(self):
        policy = ElasticFlowPolicy(deadline_padding_s=math.inf)
        assert policy.deadline_padding_s == math.inf


class TestGrid:
    def test_grid_covers_deadlines(self):
        policy = bound(ElasticFlowPolicy())
        grid = policy._grid(0.0, [job(0, deadline_rel=7200.0)])
        assert grid.origin == 0.0
        assert grid.end >= 7200.0

    def test_grid_widens_beyond_max_horizon(self):
        policy = bound(ElasticFlowPolicy(max_horizon=10))
        far = job(0, deadline_rel=1e6)
        grid = policy._grid(0.0, [far])
        assert grid.horizon <= 10
        assert grid.end >= 1e6
        assert grid.slot_seconds > 600.0  # widened

    def test_widened_slot_fits_a_non_power_of_two_cap(self):
        # ``span / 777`` rounds low here, so ``ceil(span / slot)`` was 778
        # and ``SlotGrid.for_jobs`` raised in the middle of a run.
        policy = bound(ElasticFlowPolicy(max_horizon=777))
        far = job(0, deadline_rel=51_839_182.607592285)
        grid = policy._grid(0.0, [far])
        assert grid.horizon == 777
        assert grid.end >= far.spec.effective_deadline
        assert policy.admit(job(1, deadline_rel=86400.0, iters=1000), [far], 0.0)

    def test_best_effort_only_gives_minimal_grid(self):
        policy = bound(ElasticFlowPolicy())
        grid = policy._grid(50.0, [job(0, best_effort=True)])
        assert grid.origin == 50.0
        assert grid.horizon == 1


class TestPlanningCapacity:
    def test_full_capacity_without_reserve(self):
        policy = bound(ElasticFlowPolicy())
        assert policy._planning_capacity() == 16

    def test_reserve_withheld_when_healthy(self):
        policy = bound(ElasticFlowPolicy(failure_reserve_gpus=8))
        assert policy._planning_capacity() == 8

    def test_reserve_spent_during_outage(self):
        policy = bound(ElasticFlowPolicy(failure_reserve_gpus=8))
        policy.context.usable_gpus = 8  # one node down
        assert policy._planning_capacity() == 8  # insurance used, not doubled

    def test_outage_beyond_reserve_shrinks_planning(self):
        policy = bound(ElasticFlowPolicy(failure_reserve_gpus=4))
        policy.context.usable_gpus = 8
        assert policy._planning_capacity() == 8


class TestAllocateBasics:
    def test_empty_active_list(self):
        policy = bound(ElasticFlowPolicy())
        assert policy.allocate([], 0.0) == {}

    def test_total_outage_all_zero(self):
        policy = bound(ElasticFlowPolicy())
        policy.context.usable_gpus = 0
        decisions = policy.allocate([job(0)], 0.0)
        assert decisions == {"j0": 0}

    def test_allocations_cover_all_jobs(self):
        policy = bound(ElasticFlowPolicy())
        jobs = [job(i, deadline_rel=3600.0 * (i + 1)) for i in range(3)]
        decisions = policy.allocate(jobs, 0.0)
        assert set(decisions) == {"j0", "j1", "j2"}
        assert sum(decisions.values()) <= 16


class TestStabilize:
    def test_zero_threshold_never_interferes(self):
        eager = bound(ElasticFlowPolicy(stability_threshold=0.0))
        sticky = bound(ElasticFlowPolicy(stability_threshold=0.5))
        fresh = [job(i, deadline_rel=7200.0) for i in range(2)]
        # With no current allocations both behave identically.
        assert eager.allocate(fresh, 0.0) == sticky.allocate(fresh, 0.0)

    def test_small_change_suppressed(self):
        policy = bound(ElasticFlowPolicy(stability_threshold=0.9))
        running = job(0, deadline_rel=86400.0, n_gpus=8)
        decisions = policy.allocate([running], 0.0)
        # A lone job would normally grow to its peak size (16); with an
        # aggressive threshold it keeps its current 8 (the gain is < 90 %).
        assert decisions["j0"] == 8

    def test_deadline_pressure_overrides_hysteresis(self):
        policy = bound(ElasticFlowPolicy(stability_threshold=10.0))
        # Needs far more than 1 GPU to make the deadline.
        one = MODEL.curve("resnet50", 128).throughput(1)
        urgent = job(0, deadline_rel=600.0, iters=int(one * 1800), n_gpus=1)
        decisions = policy.allocate([urgent], 0.0)
        assert decisions["j0"] > 1  # min share forces the move


class TestPlanningThroughputOverride:
    def test_pessimistic_planning_admits_less(self):
        normal = bound(ElasticFlowPolicy())
        pessimist = bound(
            ElasticFlowPolicy(
                planning_throughput=ScaledThroughputModel(MODEL, 0.4)
            )
        )
        one = MODEL.curve("resnet50", 128).throughput(1)
        # Feasible at true speed, infeasible at 0.4x of it (needs > peak).
        peak = MODEL.curve("resnet50", 128).effective_throughput(16)
        seconds = 1200.0
        iters = int(peak * seconds * 0.8)
        candidate = Job(
            spec=JobSpec(
                job_id="edge",
                model_name="resnet50",
                global_batch_size=128,
                max_iterations=iters,
                submit_time=0.0,
                deadline=seconds,
            )
        )
        assert normal.admit(candidate, [], 0.0)
        assert not pessimist.admit(candidate, [], 0.0)

    def test_execution_curves_untouched(self):
        policy = bound(
            ElasticFlowPolicy(planning_throughput=ScaledThroughputModel(MODEL, 0.4))
        )
        # The context (execution) model is still the true one.
        true_rate = MODEL.curve("resnet50", 128).throughput(4)
        assert policy.context.curve_for(job(0)).throughput(4) == pytest.approx(
            true_rate
        )
        planning_rate = policy._planning_curve(job(0)).throughput(4)
        assert planning_rate == pytest.approx(0.4 * true_rate)
