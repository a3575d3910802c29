"""Tests for Algorithm 1 — progressive filling and admission control.

Includes the paper's worked examples: the Fig 4 scenario (job C needs one
GPU in the first slot and four in the second to meet its deadline) and the
Fig 3 setup (two jobs that EDF cannot satisfy but one-worker-each can).
"""

from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AdmissionController, SlotGrid, progressive_filling
from repro.core.job import Job, JobSpec
from repro.core.admission import planning_job
from repro.errors import ConfigurationError
from repro.perf import probe
from repro.perf.tables import batched_solver_disabled, planning_cache_disabled
from repro.profiles import ThroughputModel

from conftest import synthetic_planning_job

#: The toy scaling curve of paper Figs 3/4: 1, 1.5 and 2 units of
#: throughput at 1, 2 and 4 workers.
FIG_CURVE = {1: 1.0, 2: 1.5, 4: 2.0}


class TestProgressiveFilling:
    def test_single_gpu_suffices_for_loose_deadline(self, unit_grid):
        info = synthetic_planning_job("a", 3.0, 3.0, unit_grid, 4, FIG_CURVE)
        plan = progressive_filling(info, np.full(5, 4))
        assert plan.tolist() == [1, 1, 1, 0, 0]

    def test_tighter_deadline_needs_more_gpus(self, unit_grid):
        # Deadline 2: cap 2 gives 1.5+1.5 = 3 units of work.
        info = synthetic_planning_job("a", 3.0, 2.0, unit_grid, 4, FIG_CURVE)
        plan = progressive_filling(info, np.full(5, 4))
        assert plan.tolist() == [2, 2, 0, 0, 0]

    def test_fig4_scenario_one_then_four(self, unit_grid):
        """Paper Fig 4: 3 of 4 GPUs are busy in slot 0; job C (D=2, M=3)
        must take 1 GPU now and 4 GPUs in the next slot."""
        available = np.array([1, 4, 4, 4, 4])
        info = synthetic_planning_job("c", 3.0, 2.0, unit_grid, 4, FIG_CURVE)
        plan = progressive_filling(info, available)
        assert plan.tolist() == [1, 4, 0, 0, 0]

    def test_fig4_cap_two_is_insufficient(self, unit_grid):
        """With cap 2 job C only achieves T(1)+T(2) = 2.5 < 3 iterations."""
        available = np.array([1, 4, 4, 4, 4])
        info = synthetic_planning_job("c", 3.0, 2.0, unit_grid, 4, {1: 1.0, 2: 1.5})
        assert progressive_filling(info, available) is None

    def test_infeasible_deadline_returns_none(self, unit_grid):
        info = synthetic_planning_job("a", 100.0, 2.0, unit_grid, 4, FIG_CURVE)
        assert progressive_filling(info, np.full(5, 4)) is None

    def test_no_capacity_returns_none(self, unit_grid):
        info = synthetic_planning_job("a", 1.0, 2.0, unit_grid, 4, FIG_CURVE)
        assert progressive_filling(info, np.zeros(5, dtype=int)) is None

    def test_zero_remaining_returns_zero_plan(self, unit_grid):
        info = synthetic_planning_job("a", 0.0, 2.0, unit_grid, 4, FIG_CURVE)
        plan = progressive_filling(info, np.full(5, 4))
        assert plan.tolist() == [0] * 5

    def test_allocation_rounds_down_to_runnable_size(self, unit_grid):
        # With 3 GPUs free the job can only actually use 2.
        available = np.array([3, 3, 3, 3, 3])
        info = synthetic_planning_job("a", 3.0, 2.0, unit_grid, 4, FIG_CURVE)
        plan = progressive_filling(info, available)
        assert plan.tolist() == [2, 2, 0, 0, 0]

    def test_head_progress_counts(self, unit_grid):
        info = synthetic_planning_job("a", 3.0, 3.0, unit_grid, 4, FIG_CURVE)
        head = np.array([2, 0, 0, 0, 0])
        plan = progressive_filling(info, np.full(5, 4), start_slot=1, head=head)
        # Head contributes 1.5; tail needs 1.5 more -> cap 1 gives 1+1 at
        # slots 1-2 (trimmed at completion).
        assert plan[0] == 2
        assert plan[1:].sum() > 0
        progress = float(np.sum(info.throughput_table[plan] * info.weights))
        assert progress >= 3.0 - 1e-9

    def test_fractional_last_slot(self):
        grid = SlotGrid(origin=0.0, slot_seconds=1.0, horizon=3)
        # Deadline 1.5: slot 0 full, slot 1 half usable.
        info = synthetic_planning_job("a", 1.5, 1.5, grid, 4, {1: 1.0})
        plan = progressive_filling(info, np.full(3, 4))
        assert plan.tolist() == [1, 1, 0]

    def test_completion_slot_shaved_to_residual(self, unit_grid):
        """The finishing slot holds only the GPUs the residual work needs."""
        # Linear curve; work 3 with cap 2 finishes mid-slot-1: the fill must
        # keep 2 GPUs in slot 0 but only 1 in slot 1 (residual is 1 unit).
        info = synthetic_planning_job(
            "a", 3.0, 2.0, unit_grid, 4, {1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0}
        )
        plan = progressive_filling(info, np.full(5, 4))
        assert plan.tolist() == [2, 1, 0, 0, 0]

    def test_shave_regression_theorem1_instance(self):
        """The hypothesis-found instance: feasible per Theorem 1, rejected
        by the unshaved fill (the finishing slot hoarded a spare GPU)."""
        grid = SlotGrid(origin=0.0, slot_seconds=1.0, horizon=12)
        linear = {size: float(size) for size in range(1, 5)}
        jobs = [
            synthetic_planning_job("j1", 2.0, 1.0, grid, 4, linear),
            synthetic_planning_job("j0", 3.0, 2.0, grid, 4, linear),
            synthetic_planning_job("j4", 7.0, 3.0, grid, 4, linear),
            synthetic_planning_job("j2", 1.0, 4.0, grid, 4, linear),
            synthetic_planning_job("j3", 1.0, 4.0, grid, 4, linear),
        ]
        result = AdmissionController(4).plan_shares(jobs, grid)
        assert result.admitted


class TestAdmissionController:
    def build(self, capacity=4):
        return AdmissionController(capacity)

    def test_single_job_admitted(self, unit_grid):
        controller = self.build()
        info = synthetic_planning_job("a", 3.0, 3.0, unit_grid, 4, FIG_CURVE)
        result = controller.try_admit(info, [], unit_grid)
        assert result.admitted
        assert result.plans["a"].tolist() == [1, 1, 1, 0, 0]

    def test_fig3_both_jobs_fit_with_one_worker_each(self, unit_grid):
        """Paper Fig 3(c): A (D=3) and B (D=3.5) both satisfiable on 2 GPUs."""
        controller = self.build(capacity=2)
        job_a = synthetic_planning_job("a", 3.0, 3.0, unit_grid, 2, {1: 1.0, 2: 1.5})
        job_b = synthetic_planning_job("b", 3.0, 3.5, unit_grid, 2, {1: 1.0, 2: 1.5})
        result = controller.try_admit(job_b, [job_a], unit_grid)
        assert result.admitted
        assert result.plans["a"].tolist()[:3] == [1, 1, 1]
        assert result.plans["b"].tolist()[:3] == [1, 1, 1]

    def test_rejects_job_that_would_break_existing_deadline(self, unit_grid):
        controller = self.build(capacity=1)
        job_a = synthetic_planning_job("a", 3.0, 3.0, unit_grid, 1, {1: 1.0})
        job_b = synthetic_planning_job("b", 3.0, 3.5, unit_grid, 1, {1: 1.0})
        result = controller.try_admit(job_b, [job_a], unit_grid)
        assert not result.admitted
        assert result.infeasible_job == "b"

    def test_new_early_job_can_evict_nothing(self, unit_grid):
        """A newcomer with the earliest deadline is rejected when admitting it
        would break a previously admitted job."""
        controller = self.build(capacity=1)
        older = synthetic_planning_job("old", 2.0, 4.0, unit_grid, 1, {1: 1.0})
        newcomer = synthetic_planning_job("new", 3.0, 3.0, unit_grid, 1, {1: 1.0})
        result = controller.try_admit(newcomer, [older], unit_grid)
        assert not result.admitted
        # The violated job is the *older* one, re-planned after the newcomer.
        assert result.infeasible_job == "old"

    def test_best_effort_always_admitted(self, unit_grid):
        controller = self.build(capacity=1)
        slo = synthetic_planning_job("slo", 3.0, 3.0, unit_grid, 1, {1: 1.0})
        be = synthetic_planning_job(
            "be", 100.0, float("inf"), unit_grid, 1, {1: 1.0}, best_effort=True
        )
        result = controller.try_admit(be, [slo], unit_grid)
        assert result.admitted
        assert result.plans["be"].tolist() == [0] * 5

    def test_plan_shares_degrades_without_stopping(self, unit_grid):
        controller = self.build(capacity=1)
        job_a = synthetic_planning_job("a", 3.0, 3.0, unit_grid, 1, {1: 1.0})
        job_b = synthetic_planning_job("b", 3.0, 3.5, unit_grid, 1, {1: 1.0})
        result = controller.plan_shares([job_a, job_b], unit_grid)
        assert not result.admitted
        assert result.infeasible_job == "b"
        # Both jobs still have plans; b runs best-possible.
        assert "b" in result.plans

    def test_ledger_capacity_respected(self, unit_grid):
        controller = self.build(capacity=4)
        jobs = [
            synthetic_planning_job(f"j{i}", 2.0, 3.0, unit_grid, 4, FIG_CURVE)
            for i in range(4)
        ]
        result = controller.plan_shares(jobs, unit_grid)
        assert result.admitted
        total = sum(result.plans[f"j{i}"] for i in range(4))
        assert np.all(total <= 4)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            AdmissionController(0)


class TestPlanningJobFactory:
    def test_tables_from_real_curve(self):
        grid = SlotGrid(origin=0.0, slot_seconds=60.0, horizon=10)
        job = Job(
            spec=JobSpec(
                job_id="a",
                model_name="resnet50",
                global_batch_size=128,
                max_iterations=1000,
                deadline=600.0,
            )
        )
        curve = ThroughputModel().curve("resnet50", 128)
        info = planning_job(job, curve, grid, 16)
        assert info.remaining_iterations == 1000
        assert info.throughput_table[1] == pytest.approx(curve.throughput(1))
        assert info.size_table[3] == 2  # floor to runnable power of two
        assert tuple(info.sizes) == (1, 2, 4, 8, 16)

    def test_safety_margin_inflates_work(self):
        grid = SlotGrid(origin=0.0, slot_seconds=60.0, horizon=10)
        job = Job(
            spec=JobSpec(
                job_id="a",
                model_name="resnet50",
                global_batch_size=128,
                max_iterations=1000,
                deadline=600.0,
            )
        )
        curve = ThroughputModel().curve("resnet50", 128)
        info = planning_job(job, curve, grid, 16, safety_margin=0.1)
        assert info.remaining_iterations == pytest.approx(1100.0)

    def test_negative_margin_rejected(self):
        grid = SlotGrid(origin=0.0, slot_seconds=60.0, horizon=2)
        job = Job(
            spec=JobSpec(
                job_id="a",
                model_name="resnet50",
                global_batch_size=128,
                max_iterations=10,
                deadline=60.0,
            )
        )
        curve = ThroughputModel().curve("resnet50", 128)
        with pytest.raises(ConfigurationError):
            planning_job(job, curve, grid, 16, safety_margin=-0.1)

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("safety_margin", float("nan")),
            ("safety_margin", float("inf")),
            ("deadline_padding_s", float("nan")),
        ],
    )
    def test_nan_knobs_and_infinite_margin_rejected(self, knob, value):
        grid = SlotGrid(origin=0.0, slot_seconds=60.0, horizon=2)
        job = Job(
            spec=JobSpec(
                job_id="a",
                model_name="resnet50",
                global_batch_size=128,
                max_iterations=10,
                deadline=60.0,
            )
        )
        curve = ThroughputModel().curve("resnet50", 128)
        with pytest.raises(ConfigurationError):
            planning_job(job, curve, grid, 16, **{knob: value})


class TestAdmissionProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        deadlines=st.lists(
            st.floats(min_value=0.5, max_value=5.0), min_size=1, max_size=6
        ),
        works=st.lists(
            st.floats(min_value=0.5, max_value=6.0), min_size=1, max_size=6
        ),
    )
    def test_admitted_sets_are_feasible(self, deadlines, works):
        """Whenever plan_shares succeeds, every plan meets its deadline and
        capacity is never exceeded."""
        grid = SlotGrid(origin=0.0, slot_seconds=1.0, horizon=8)
        n = min(len(deadlines), len(works))
        infos = [
            synthetic_planning_job(f"j{i}", works[i], deadlines[i], grid, 4, FIG_CURVE)
            for i in range(n)
        ]
        controller = AdmissionController(4)
        result = controller.plan_shares(infos, grid)
        if not result.admitted:
            return
        total = np.zeros(8, dtype=int)
        for info in infos:
            plan = result.plans[info.job_id]
            total += plan
            progress = float(np.sum(info.throughput_table[plan] * info.weights))
            assert progress >= info.remaining_iterations - 1e-6
        assert np.all(total <= 4)


#: Toy curves for the admission-verdict sweep: Fig 3/4's, a linear one and
#: one with a plateau between 2 and 4 workers.
VERDICT_CURVES = (
    FIG_CURVE,
    {1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0},
    {1: 1.0, 2: 1.8, 4: 1.8},
)


@st.composite
def admission_instances(draw):
    """An arrival against an admitted set that already holds infeasible jobs.

    Deadlines come from a short list so they tie, and the candidate's id
    (``j<k>x``) sorts between the admitted ``j<k>`` and ``j<k+1>``, so
    tied jobs fall on both sides of it.  About a third of the admitted
    jobs carry far more work than their deadline allows: they are degraded
    with or without the candidate, before it and after it.
    """
    deadlines = st.sampled_from([0.5, 1.0, 2.0, 2.5, 3.0, 4.5, 6.0])
    n = draw(st.integers(min_value=1, max_value=6))
    jobs = []
    for i in range(n):
        hopeless = draw(st.integers(min_value=0, max_value=2)) == 0
        work = 50.0 if hopeless else draw(st.floats(min_value=0.3, max_value=10.0))
        jobs.append((f"j{i}", work, draw(deadlines), draw(st.integers(0, 2))))
    k = draw(st.integers(min_value=0, max_value=n))
    candidate = (
        f"j{k}x",
        draw(st.floats(min_value=0.3, max_value=10.0)),
        draw(deadlines),
        draw(st.integers(0, 2)),
    )
    capacity = draw(st.sampled_from([2, 3, 4]))
    warm = draw(st.booleans())  # a previous fill of the admitted set
    return capacity, jobs, candidate, warm


def _verdict_views(jobs, candidate, grid, capacity):
    curves = [
        {size: rate for size, rate in curve.items() if size <= capacity}
        for curve in VERDICT_CURVES
    ]
    views = [
        replace(
            synthetic_planning_job(job_id, work, deadline, grid, capacity, curves[curve]),
            tables_token=i + 1,
        )
        for i, (job_id, work, deadline, curve) in enumerate([candidate] + jobs)
    ]
    return views[0], views[1:]


class TestTrialFirstVerdict:
    """``try_admit`` runs the trial fill first and the baseline only when
    a trial-degraded job sorts after the candidate; its verdict must equal
    the two-fill definition (baseline, trial, newly broken deadlines)."""

    @settings(max_examples=150, deadline=None)
    @given(admission_instances(), st.sampled_from(["production", "reference", "sequential"]))
    def test_matches_the_two_fill_definition(self, instance, mode):
        capacity, jobs, candidate, warm = instance
        grid = SlotGrid(origin=0.0, slot_seconds=1.0, horizon=6)
        switch = {
            "production": nullcontext,
            "reference": planning_cache_disabled,
            "sequential": batched_solver_disabled,
        }[mode]

        # The definition, on fresh controllers and fresh views.
        cand, admitted = _verdict_views(jobs, candidate, grid, capacity)
        baseline = AdmissionController(capacity).plan_shares(admitted, grid)
        cand, admitted = _verdict_views(jobs, candidate, grid, capacity)
        trial = AdmissionController(capacity).plan_shares(admitted + [cand], grid)
        newly_broken = trial.degraded - baseline.degraded - {cand.job_id}
        expected = cand.job_id not in trial.degraded and not newly_broken
        later = {
            info.job_id
            for info in admitted
            if info.job_id in trial.degraded
            and (info.deadline, info.job_id) > (cand.deadline, cand.job_id)
        }
        needs_baseline = cand.job_id not in trial.degraded and bool(later)

        with switch():
            controller = AdmissionController(capacity)
            if warm:
                controller.plan_shares(
                    _verdict_views(jobs, candidate, grid, capacity)[1], grid
                )
            cand, admitted = _verdict_views(jobs, candidate, grid, capacity)
            fills = []
            plan_shares = controller.plan_shares
            controller.plan_shares = lambda infos, g: fills.append(1) or plan_shares(infos, g)
            probe.reset_counters()
            result = controller.try_admit(cand, admitted, grid)

        assert result.admitted == expected
        assert result.infeasible_job == trial.infeasible_job
        assert result.degraded == trial.degraded
        assert set(result.plans) == set(trial.plans)
        for job_id, plan in trial.plans.items():
            assert np.array_equal(result.plans[job_id], plan)
        # A clean admit (no trial-degraded job after the candidate) is one fill.
        assert len(fills) == 1 + needs_baseline
        assert probe.counters().get("alg1_admit_baselines", 0) == needs_baseline

    def test_already_degraded_later_job_needs_the_baseline(self, unit_grid):
        """A later job that is infeasible on its own does not veto the
        newcomer; telling it from a newly broken one takes the baseline."""
        controller = AdmissionController(1)
        lost = synthetic_planning_job("lost", 100.0, 4.0, unit_grid, 1, {1: 1.0})
        newcomer = synthetic_planning_job("new", 1.0, 1.0, unit_grid, 1, {1: 1.0})
        probe.reset_counters()
        result = controller.try_admit(newcomer, [lost], unit_grid)
        assert result.admitted
        assert result.degraded == {"lost"}
        assert probe.counters()["alg1_admit_baselines"] == 1
