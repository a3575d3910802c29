"""Tests for Algorithm 2 — greedy marginal-return allocation.

Theorem 2 of the paper states the greedy is optimal for the total-GPU-time
objective under concave curves; ``TestOptimality`` checks this against
brute-force enumeration on small instances.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AdmissionController, Ledger, SlotGrid, allocate_leftover
from repro.core.admission import progressive_filling

from conftest import synthetic_planning_job

FIG_CURVE = {1: 1.0, 2: 1.5, 4: 2.0}


def plan_and_allocate(infos, grid, capacity):
    """Run Algorithm 1 then Algorithm 2, as the scheduler does."""
    controller = AdmissionController(capacity)
    result = controller.plan_shares(infos, grid)
    decisions = allocate_leftover(infos, result.ledger, grid.slot_seconds)
    return decisions, result.ledger


class TestLeftoverAllocation:
    def test_single_job_grows_to_max_useful(self, unit_grid):
        info = synthetic_planning_job("a", 3.0, 4.0, unit_grid, 4, FIG_CURVE)
        decisions, _ = plan_and_allocate([info], unit_grid, 4)
        # Min share is 1 GPU; leftovers push it to 4 (throughput still rises).
        assert decisions["a"] == 4

    def test_never_grows_past_throughput_peak(self, unit_grid):
        curve = {1: 1.0, 2: 1.5, 4: 1.5}  # flat beyond 2 workers
        info = synthetic_planning_job("a", 3.0, 4.0, unit_grid, 4, curve)
        decisions, _ = plan_and_allocate([info], unit_grid, 4)
        assert decisions["a"] == 2

    def test_leftovers_favour_cheapest_expansion(self, unit_grid):
        """With one spare GPU, the better marginal return wins it."""
        efficient = synthetic_planning_job(
            "eff", 3.0, 4.0, unit_grid, 8, {1: 1.0, 2: 1.9, 4: 3.6}
        )
        wasteful = synthetic_planning_job(
            "waste", 3.0, 4.0, unit_grid, 8, {1: 1.0, 2: 1.1, 4: 1.2}
        )
        decisions, _ = plan_and_allocate([efficient, wasteful], unit_grid, 3)
        assert decisions["eff"] == 2
        assert decisions["waste"] == 1  # its min share only

    def test_all_gpus_used_when_upgrades_still_help(self, unit_grid):
        """Constraint (7): leftovers are handed out even at negative marginal
        return, as long as the receiving job still speeds up."""
        efficient = synthetic_planning_job(
            "eff", 3.0, 4.0, unit_grid, 8, {1: 1.0, 2: 1.9, 4: 3.6}
        )
        wasteful = synthetic_planning_job(
            "waste", 3.0, 4.0, unit_grid, 8, {1: 1.0, 2: 1.1, 4: 1.2}
        )
        decisions, _ = plan_and_allocate([efficient, wasteful], unit_grid, 4)
        assert sum(decisions.values()) == 4

    def test_capacity_never_exceeded(self, unit_grid):
        infos = [
            synthetic_planning_job(f"j{i}", 2.0, 4.0, unit_grid, 4, FIG_CURVE)
            for i in range(3)
        ]
        decisions, ledger = plan_and_allocate(infos, unit_grid, 4)
        assert sum(decisions.values()) <= 4
        assert np.all(ledger.used <= 4)

    def test_min_shares_preserved(self, unit_grid):
        """Upgrades never shrink anyone below the minimum satisfactory share."""
        tight = synthetic_planning_job("tight", 3.0, 2.0, unit_grid, 4, FIG_CURVE)
        loose = synthetic_planning_job("loose", 1.0, 4.0, unit_grid, 4, FIG_CURVE)
        decisions, ledger = plan_and_allocate([tight, loose], unit_grid, 4)
        # tight needs 2 GPUs in slot 0 to make its deadline.
        assert decisions["tight"] >= 2
        progress = float(
            np.sum(tight.throughput_table[ledger.plan_of("tight")] * tight.weights)
        )
        assert progress >= 3.0 - 1e-6

    def test_deadlines_remain_feasible_after_upgrades(self, unit_grid):
        infos = [
            synthetic_planning_job("a", 3.0, 2.0, unit_grid, 4, FIG_CURVE),
            synthetic_planning_job("b", 3.0, 4.0, unit_grid, 4, FIG_CURVE),
        ]
        _, ledger = plan_and_allocate(infos, unit_grid, 4)
        for info in infos:
            plan = ledger.plan_of(info.job_id)
            progress = float(np.sum(info.throughput_table[plan] * info.weights))
            assert progress >= info.remaining_iterations - 1e-6


class TestBestEffort:
    def test_idle_best_effort_gets_first_leftover(self, unit_grid):
        slo = synthetic_planning_job("slo", 1.0, 4.0, unit_grid, 4, FIG_CURVE)
        be = synthetic_planning_job(
            "be", 5.0, math.inf, unit_grid, 4, FIG_CURVE, best_effort=True
        )
        decisions, _ = plan_and_allocate([slo, be], unit_grid, 4)
        assert decisions["be"] >= 1

    def test_shortest_best_effort_served_first(self, unit_grid):
        """With one spare GPU, SRTF tie-breaking picks the shorter job."""
        grid = SlotGrid(origin=0.0, slot_seconds=1.0, horizon=5)
        long_job = synthetic_planning_job(
            "long", 100.0, math.inf, grid, 1, {1: 1.0}, best_effort=True
        )
        short_job = synthetic_planning_job(
            "short", 1.0, math.inf, grid, 1, {1: 1.0}, best_effort=True
        )
        ledger = Ledger(1, 5)
        for info in (long_job, short_job):
            ledger.set_plan(info.job_id, np.zeros(5, dtype=np.int64))
        decisions = allocate_leftover([long_job, short_job], ledger, 1.0)
        assert decisions["short"] == 1
        assert decisions["long"] == 0

    def test_slo_min_shares_before_best_effort(self, unit_grid):
        slo = synthetic_planning_job("slo", 3.0, 2.0, unit_grid, 4, FIG_CURVE)
        be = synthetic_planning_job(
            "be", 50.0, math.inf, unit_grid, 4, FIG_CURVE, best_effort=True
        )
        decisions, ledger = plan_and_allocate([slo, be], unit_grid, 4)
        plan = ledger.plan_of("slo")
        progress = float(np.sum(slo.throughput_table[plan] * slo.weights))
        assert progress >= 3.0 - 1e-6


class TestOptimality:
    """Brute-force verification of Theorem 2 on small instances."""

    def brute_force_best(self, infos, grid, capacity):
        """Minimum total GPU-time over all maximal slot-0 expansions."""
        controller = AdmissionController(capacity)
        base = controller.plan_shares(infos, grid)
        mins = {i.job_id: int(base.plans[i.job_id][0]) for i in infos}
        options = []
        for info in infos:
            sizes = [s for s in [0] + info.sizes if s >= mins[info.job_id]]
            # Drop sizes beyond the throughput peak (constraint 7).
            peak_sizes = []
            best_thr = -1.0
            for s in sizes:
                thr = float(info.throughput_table[s])
                if thr > best_thr:
                    peak_sizes.append(s)
                    best_thr = thr
            options.append(peak_sizes)
        best_cost = math.inf
        for combo in itertools.product(*options):
            if sum(combo) > capacity:
                continue
            ledger = Ledger(capacity, grid.horizon)
            for info in infos:
                ledger.set_plan(info.job_id, np.zeros(grid.horizon, dtype=np.int64))
            cost = 0.0
            feasible = True
            for info, size in zip(infos, combo):
                head = np.zeros(grid.horizon, dtype=np.int64)
                head[0] = size
                available = ledger.available()
                plan = progressive_filling(info, available, start_slot=1, head=head)
                if plan is None:
                    feasible = False
                    break
                ledger.set_plan(info.job_id, plan)
                cost += float(np.sum(plan * info.weights))
            if not feasible:
                continue
            # Maximality: no job could still grow within leftover capacity.
            leftover = capacity - sum(combo)
            maximal = True
            for info, size in zip(infos, combo):
                nxt = info.next_size_after(size)
                if (
                    nxt is not None
                    and nxt - size <= leftover
                    and info.throughput_table[nxt] > info.throughput_table[size]
                ):
                    maximal = False
                    break
            if maximal:
                best_cost = min(best_cost, cost)
        return best_cost

    @pytest.mark.parametrize(
        "curves,works,deadlines",
        [
            ([FIG_CURVE, FIG_CURVE], [3.0, 3.0], [3.0, 3.5]),
            ([{1: 1.0, 2: 1.8}, {1: 1.0, 2: 1.2}], [2.0, 2.0], [4.0, 4.0]),
            (
                [{1: 1.0, 2: 1.9, 4: 3.4}, {1: 2.0, 2: 3.0}, {1: 0.5, 2: 0.9}],
                [3.0, 4.0, 1.0],
                [4.0, 3.0, 5.0],
            ),
        ],
    )
    def test_greedy_matches_brute_force(self, unit_grid, curves, works, deadlines):
        infos = [
            synthetic_planning_job(f"j{i}", works[i], deadlines[i], unit_grid, 4, c)
            for i, c in enumerate(curves)
        ]
        decisions, ledger = plan_and_allocate(infos, unit_grid, 4)
        greedy_cost = sum(
            float(np.sum(ledger.plan_of(i.job_id) * i.weights)) for i in infos
        )
        brute = self.brute_force_best(
            [
                synthetic_planning_job(
                    f"j{i}", works[i], deadlines[i], unit_grid, 4, c
                )
                for i, c in enumerate(curves)
            ],
            unit_grid,
            4,
        )
        assert greedy_cost == pytest.approx(brute, rel=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(
        thr2=st.floats(min_value=1.0, max_value=2.0),
        thr2b=st.floats(min_value=1.0, max_value=2.0),
        work_a=st.floats(min_value=0.5, max_value=3.0),
        work_b=st.floats(min_value=0.5, max_value=3.0),
    )
    def test_greedy_never_worse_than_brute_force(self, thr2, thr2b, work_a, work_b):
        grid = SlotGrid(origin=0.0, slot_seconds=1.0, horizon=6)
        curve_a = {1: 1.0, 2: thr2}
        curve_b = {1: 1.0, 2: thr2b}
        infos = [
            synthetic_planning_job("a", work_a, 4.0, grid, 4, curve_a),
            synthetic_planning_job("b", work_b, 4.0, grid, 4, curve_b),
        ]
        decisions, ledger = plan_and_allocate(infos, grid, 4)
        greedy_cost = sum(
            float(np.sum(ledger.plan_of(i.job_id) * i.weights)) for i in infos
        )
        fresh = [
            synthetic_planning_job("a", work_a, 4.0, grid, 4, curve_a),
            synthetic_planning_job("b", work_b, 4.0, grid, 4, curve_b),
        ]
        brute = self.brute_force_best(fresh, grid, 4)
        assert greedy_cost <= brute + 1e-6
