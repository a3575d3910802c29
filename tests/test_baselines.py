"""Tests for the six baseline schedulers and the ablation variants."""

import numpy as np
import pytest

from repro.baselines import (
    POLICY_NAMES,
    ChronusPolicy,
    EDFPolicy,
    EDFWithAdmissionControl,
    EDFWithElasticScaling,
    GandivaPolicy,
    PolluxPolicy,
    ThemisPolicy,
    TiresiasPolicy,
    floor_power_of_two,
    make_policy,
)
from repro.cluster import ClusterSpec
from repro.core import ElasticFlowPolicy, Job, JobSpec
from repro.errors import ConfigurationError
from repro.profiles import ThroughputModel
from repro.sim import ElasticExecutor, PolicyContext, Simulator

MODEL = ThroughputModel()
SMALL = ClusterSpec(n_nodes=2, gpus_per_node=8)
CONTEXT = PolicyContext(cluster=SMALL, throughput=MODEL, slot_seconds=300.0)


def job(i, submit=0.0, deadline_rel=3600.0, requested=2, iters=10000,
        model="resnet50", batch=128, best_effort=False):
    spec = JobSpec(
        job_id=f"j{i}",
        model_name=model,
        global_batch_size=batch,
        max_iterations=iters,
        submit_time=submit,
        deadline=None if best_effort else submit + deadline_rel,
        requested_gpus=requested,
    )
    runtime = Job(spec=spec)
    runtime.mark_admitted(submit)
    return runtime


def bound(policy):
    policy.bind(CONTEXT)
    return policy


class TestFloorPowerOfTwo:
    def test_values(self):
        assert floor_power_of_two(0) == 0
        assert floor_power_of_two(1) == 1
        assert floor_power_of_two(7) == 4
        assert floor_power_of_two(8) == 8
        assert floor_power_of_two(1000) == 512


class TestRegistry:
    def test_all_names_construct(self):
        for name in POLICY_NAMES:
            policy = make_policy(name)
            assert policy.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_policy("fifo")

    def test_kwargs_forwarded(self):
        policy = make_policy("elasticflow", safety_margin=0.1)
        assert policy.safety_margin == 0.1


class TestEDF:
    def test_earliest_deadline_scales_out_first(self):
        policy = bound(EDFPolicy())
        urgent = job(0, deadline_rel=600.0)
        relaxed = job(1, deadline_rel=86400.0)
        decisions = policy.allocate([relaxed, urgent], 0.0)
        assert decisions["j0"] >= decisions["j1"]
        # The head job takes its peak-throughput share.
        peak = MODEL.curve("resnet50", 128).max_useful_gpus(16)
        assert decisions["j0"] == min(peak, 16)

    def test_no_admission_control(self):
        policy = bound(EDFPolicy())
        hopeless = job(0, deadline_rel=1.0, iters=10**9)
        assert policy.admit(hopeless, [], 0.0)

    def test_all_gpus_respected(self):
        policy = bound(EDFPolicy())
        jobs = [job(i, deadline_rel=600.0 + i) for i in range(5)]
        decisions = policy.allocate(jobs, 0.0)
        assert sum(decisions.values()) <= 16


class TestGandiva:
    def test_requested_sizes_granted_fifo(self):
        policy = bound(GandivaPolicy())
        first = job(0, submit=0.0, requested=8)
        second = job(1, submit=10.0, requested=8)
        third = job(2, submit=20.0, requested=8)
        decisions = policy.allocate([first, second, third], 30.0)
        assert decisions["j0"] == 8
        assert decisions["j1"] == 8
        assert decisions["j2"] == 0  # queued

    def test_backfill_around_blocked_head(self):
        policy = bound(GandivaPolicy())
        running = job(0, submit=0.0, requested=8)
        running.n_gpus = 8
        blocked = job(1, submit=10.0, requested=8, model="gpt2", batch=256)
        blocked.n_gpus = 8
        small = job(2, submit=20.0, requested=4)
        queued_big = job(3, submit=15.0, requested=8)
        # 16 GPUs busy; release one runner to leave 8 free.
        blocked.n_gpus = 0
        decisions = policy.allocate([running, blocked, small, queued_big], 30.0)
        assert decisions["j0"] == 8
        # FIFO among queued jobs: j1 (earliest queued) wins the free block,
        # then j3 and j2 cannot fit and wait.
        assert decisions["j1"] == 8
        assert decisions["j3"] == 0
        assert decisions["j2"] == 0

    def test_running_jobs_keep_priority(self):
        policy = bound(GandivaPolicy())
        late_but_running = job(0, submit=100.0, requested=8)
        late_but_running.n_gpus = 8
        also_running = job(1, submit=150.0, requested=8)
        also_running.n_gpus = 8
        early_but_queued = job(2, submit=0.0, requested=8)
        decisions = policy.allocate(
            [late_but_running, also_running, early_but_queued], 200.0
        )
        assert decisions["j0"] == 8
        assert decisions["j1"] == 8
        assert decisions["j2"] == 0


class TestTiresias:
    def test_low_attained_service_preempts(self):
        policy = bound(TiresiasPolicy())
        veterans = [job(i, submit=0.0, requested=8) for i in range(2)]
        for veteran in veterans:
            veteran.gpu_seconds = 10 * 3600.0  # demoted queue
        newcomer = job(2, submit=500.0, requested=8)
        decisions = policy.allocate(veterans + [newcomer], 600.0)
        assert decisions["j2"] == 8
        # Only one veteran still fits; the other is preempted.
        assert sorted(decisions[f"j{i}"] for i in range(2)) == [0, 8]

    def test_same_queue_is_fifo(self):
        policy = bound(TiresiasPolicy())
        first = job(0, submit=0.0, requested=8)
        second = job(1, submit=10.0, requested=8)
        decisions = policy.allocate([second, first], 20.0)
        assert decisions["j0"] == 8
        assert decisions["j1"] == 8

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ConfigurationError):
            TiresiasPolicy(queue_thresholds_gpu_hours=(0.0,))
        with pytest.raises(ConfigurationError):
            TiresiasPolicy(queue_thresholds_gpu_hours=(2.0, 1.0))

    def test_queue_index(self):
        policy = TiresiasPolicy(queue_thresholds_gpu_hours=(1.0, 4.0))
        fresh = job(0)
        fresh.gpu_seconds = 0.0
        mid = job(1)
        mid.gpu_seconds = 2 * 3600.0
        old = job(2)
        old.gpu_seconds = 10 * 3600.0
        assert policy.queue_index(fresh) == 0
        assert policy.queue_index(mid) == 1
        assert policy.queue_index(old) == 2


class TestThemis:
    def test_worst_fairness_served_first(self):
        policy = bound(ThemisPolicy())
        starved = job(0, submit=0.0, requested=16)  # waited long, no GPUs
        fresh = job(1, submit=9_000.0, requested=16)
        # Both jobs request 16 but resnet50@128 peaks at 8 GPUs.
        now = 10_000.0
        rho_starved = policy.finish_time_fairness(starved, now)
        rho_fresh = policy.finish_time_fairness(fresh, now)
        assert rho_starved > rho_fresh
        decisions = policy.allocate([fresh, starved], now)
        assert decisions["j0"] >= decisions["j1"]
        assert decisions["j0"] == 8  # requested 16, capped at the peak size

    def test_fairness_at_submission_is_one(self):
        policy = bound(ThemisPolicy())
        fresh = job(0, submit=0.0, requested=4)
        assert policy.finish_time_fairness(fresh, 0.0) == pytest.approx(1.0)

    def test_running_job_fairness_accounts_current_rate(self):
        policy = bound(ThemisPolicy())
        shrunk = job(0, submit=0.0, requested=8)
        shrunk.n_gpus = 1  # running far below its request
        rho = policy.finish_time_fairness(shrunk, 100.0)
        assert rho > 1.0


class TestChronus:
    def test_drops_infeasible_job(self):
        policy = bound(ChronusPolicy())
        hopeless = job(0, deadline_rel=10.0, iters=10**8, requested=1)
        assert not policy.admit(hopeless, [], 0.0)

    def test_admits_feasible_job(self):
        policy = bound(ChronusPolicy())
        easy = job(0, deadline_rel=86400.0, iters=1000, requested=2)
        assert policy.admit(easy, [], 0.0)

    def test_best_effort_always_admitted(self):
        policy = bound(ChronusPolicy())
        be = job(0, best_effort=True, iters=10**8, requested=1)
        assert policy.admit(be, [], 0.0)

    def test_non_elastic_allocation(self):
        """Chronus never exceeds a job's requested size."""
        policy = bound(ChronusPolicy())
        lone = job(0, deadline_rel=86400.0, requested=2)
        decisions = policy.allocate([lone], 0.0)
        assert decisions["j0"] <= 2

    def test_best_effort_packed_into_leftovers(self):
        policy = bound(ChronusPolicy())
        slo = job(0, deadline_rel=86400.0, requested=2)
        be = job(1, best_effort=True, requested=4)
        decisions = policy.allocate([slo, be], 0.0)
        assert decisions["j1"] == 4


    def test_widened_slot_fits_a_non_power_of_two_cap(self):
        # Same widening as ElasticFlowPolicy (SlotGrid.covering): with 600 s
        # slots ``span / 777`` rounds low and the horizon came out 778.
        policy = ChronusPolicy(max_horizon=777)
        policy.bind(PolicyContext(cluster=SMALL, throughput=MODEL, slot_seconds=600.0))
        far = job(0, deadline_rel=51_839_182.607592285, iters=1000, requested=1)
        grid = policy._grid(0.0, [far])
        assert grid.horizon == 777
        assert grid.end >= far.spec.effective_deadline
        assert policy.admit(far, [], 0.0)


class TestPollux:
    def test_spreads_before_growing(self):
        policy = bound(PolluxPolicy())
        jobs = [job(i, requested=1) for i in range(4)]
        decisions = policy.allocate(jobs, 0.0)
        assert all(decisions[f"j{i}"] >= 1 for i in range(4))

    def test_elastic_beyond_request(self):
        policy = bound(PolluxPolicy())
        lone = job(0, requested=1)
        decisions = policy.allocate([lone], 0.0)
        assert decisions["j0"] > 1  # elasticity ignores the request

    def test_never_deadline_aware(self):
        policy = bound(PolluxPolicy())
        hopeless = job(0, deadline_rel=1.0, iters=10**9)
        assert policy.admit(hopeless, [], 0.0)

    def test_capacity_respected(self):
        policy = bound(PolluxPolicy())
        jobs = [job(i) for i in range(10)]
        decisions = policy.allocate(jobs, 0.0)
        assert sum(decisions.values()) <= 16


class TestVariants:
    def test_edf_ac_admits_like_elasticflow(self):
        gate = bound(EDFWithAdmissionControl())
        hopeless = job(0, deadline_rel=10.0, iters=10**9)
        assert not gate.admit(hopeless, [], 0.0)
        easy = job(1, deadline_rel=86400.0, iters=100)
        assert gate.admit(easy, [], 0.0)

    def test_edf_ac_allocates_like_edf(self):
        variant = bound(EDFWithAdmissionControl())
        plain = bound(EDFPolicy())
        jobs = [job(i, deadline_rel=600.0 * (i + 1)) for i in range(3)]
        assert variant.allocate(jobs, 0.0) == plain.allocate(jobs, 0.0)

    def test_edf_es_admits_everything(self):
        variant = bound(EDFWithElasticScaling())
        hopeless = job(0, deadline_rel=10.0, iters=10**9)
        assert variant.admit(hopeless, [], 0.0)

    def test_edf_es_allocates_like_elasticflow(self):
        variant = bound(EDFWithElasticScaling())
        reference = bound(ElasticFlowPolicy())
        jobs = [job(i, deadline_rel=3600.0 * (i + 1)) for i in range(3)]
        assert variant.allocate(jobs, 0.0) == reference.allocate(jobs, 0.0)


class TestEndToEndComparison:
    """All policies drive a contended workload without crashing, and the
    deadline-aware elastic policy comes out on top."""

    @pytest.fixture(scope="class")
    def workload(self):
        rng = np.random.default_rng(42)
        specs = []
        pool = [("resnet50", 128), ("vgg16", 64), ("bert", 64), ("gpt2", 128)]
        for i in range(30):
            name, batch = pool[rng.integers(len(pool))]
            one = MODEL.curve(name, batch).throughput(1)
            duration = float(rng.uniform(1200, 7200))
            submit = float(rng.uniform(0, 7200))
            lam = float(rng.uniform(0.5, 1.5))
            specs.append(
                JobSpec(
                    job_id=f"job-{i}",
                    model_name=name,
                    global_batch_size=batch,
                    max_iterations=max(1, int(one * duration)),
                    submit_time=submit,
                    deadline=submit + lam * duration,
                    requested_gpus=int(2 ** rng.integers(0, 4)),
                )
            )
        return specs

    @pytest.fixture(scope="class")
    def results(self, workload):
        outcomes = {}
        for name in POLICY_NAMES:
            sim = Simulator(
                SMALL,
                make_policy(name),
                workload,
                throughput=MODEL,
                executor=ElasticExecutor.disabled(),
            )
            outcomes[name] = sim.run()
        return outcomes

    def test_all_policies_finish(self, results):
        for name, result in results.items():
            assert result.completed_count + result.dropped_count == 30, name

    def test_elasticflow_guarantee(self, results):
        for outcome in results["elasticflow"].outcomes:
            if outcome.admitted:
                assert outcome.met_deadline

    def test_elasticflow_wins_or_ties(self, results):
        best = results["elasticflow"].deadline_satisfactory_ratio
        for name, result in results.items():
            assert best >= result.deadline_satisfactory_ratio - 1e-9, name

    def test_deadline_aware_beats_oblivious(self, results):
        oblivious = max(
            results[name].deadline_satisfactory_ratio
            for name in ("gandiva", "tiresias", "themis")
        )
        assert results["elasticflow"].deadline_satisfactory_ratio >= oblivious
