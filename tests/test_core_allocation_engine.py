"""Tests for the chain-native Algorithm 2 upgrade loop.

The default path (``_allocate_chained``) must be *decision-equivalent* to
the paper-literal loop — same final plans, bit for bit — because the two
switches exist precisely to prove that.  Both switches run that one loop
(every stale pop rebuilt) on the reference scan: ``batched_solver_disabled()``
on the cached tables (the yardstick), ``planning_cache_disabled()`` on
rebuilt tables.  The equivalence classes here run the identical scenario
under all three configurations and compare the full per-job plans; the
differential class does the same over random ladders, throughput tables,
windows, capacities and registered plans, and checks that the random
instances really reach every proposal form and every loop behaviour the
exactness argument has to cover.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AdmissionController, Ledger, SlotGrid, allocate_leftover
from repro.core import allocation
from repro.core.admission import CLAMPED, ladder_rows, progressive_filling
from repro.core.allocation import _ChainState, _propose
from repro.perf import probe
from repro.perf.tables import batched_solver_disabled, planning_cache_disabled

from conftest import HypothesisDraws, NumpyDraws, synthetic_planning_job

FIG_CURVE = {1: 1.0, 2: 1.5, 4: 2.0}
PLATEAU_CURVE = {1: 1.0, 2: 1.8, 4: 1.8, 8: 3.0}


def unit_grid(horizon: int = 5) -> SlotGrid:
    return SlotGrid(origin=0.0, slot_seconds=1.0, horizon=horizon)


def run_algorithm2(make_infos, grid, capacity):
    """Algorithm 1 then Algorithm 2 on fresh views; returns final plans."""
    infos = make_infos()
    controller = AdmissionController(capacity)
    result = controller.plan_shares(infos, grid)
    decisions = allocate_leftover(infos, result.ledger, grid.slot_seconds)
    plans = {info.job_id: result.ledger.plan_of(info.job_id) for info in infos}
    return decisions, plans


def assert_three_way_equivalence(make_infos, grid, capacity):
    """Chain loop == yardstick == cache-disabled reference.

    The yardstick and the reference share the paper-literal outer loop of
    each algorithm; they differ only in the fill scan and the tables.
    """
    chain_decisions, chain_plans = run_algorithm2(make_infos, grid, capacity)
    with batched_solver_disabled():
        seq_decisions, seq_plans = run_algorithm2(make_infos, grid, capacity)
    with planning_cache_disabled():
        ref_decisions, ref_plans = run_algorithm2(make_infos, grid, capacity)
    assert chain_decisions == seq_decisions == ref_decisions
    for job_id in chain_plans:
        assert np.array_equal(chain_plans[job_id], seq_plans[job_id])
        assert np.array_equal(chain_plans[job_id], ref_plans[job_id])


class TestEngineEquivalence:
    def test_contended_slo_mix(self):
        grid = unit_grid()

        def make():
            return [
                synthetic_planning_job("a", 3.0, 4.0, grid, 8, FIG_CURVE),
                synthetic_planning_job(
                    "b", 3.0, 4.0, grid, 8, {1: 1.0, 2: 1.9, 4: 3.6}
                ),
                synthetic_planning_job(
                    "c", 2.0, 3.0, grid, 8, {1: 1.0, 2: 1.1, 4: 1.2}
                ),
            ]

        assert_three_way_equivalence(make, grid, 6)

    def test_best_effort_and_slo_mix(self):
        grid = unit_grid()

        def make():
            return [
                synthetic_planning_job("slo", 3.0, 2.0, grid, 4, FIG_CURVE),
                synthetic_planning_job(
                    "be", 5.0, math.inf, grid, 4, FIG_CURVE, best_effort=True
                ),
            ]

        assert_three_way_equivalence(make, grid, 4)

    @settings(max_examples=30, deadline=None)
    @given(
        thr2=st.floats(min_value=1.01, max_value=2.0),
        thr4=st.floats(min_value=1.01, max_value=4.0),
        work_a=st.floats(min_value=0.5, max_value=4.0),
        work_b=st.floats(min_value=0.5, max_value=4.0),
        deadline_b=st.floats(min_value=2.0, max_value=5.0),
        capacity=st.integers(min_value=3, max_value=8),
        best_effort=st.booleans(),
    )
    def test_random_instances_equivalent(
        self, thr2, thr4, work_a, work_b, deadline_b, capacity, best_effort
    ):
        grid = unit_grid(horizon=6)
        curve_a = {1: 1.0, 2: thr2, 4: max(thr2, thr4)}
        curve_b = {1: 1.0, 2: thr2 * 0.9 + 0.1}

        def make():
            return [
                synthetic_planning_job("a", work_a, 4.0, grid, 8, curve_a),
                synthetic_planning_job(
                    "b",
                    work_b,
                    math.inf if best_effort else deadline_b,
                    grid,
                    8,
                    curve_b,
                    best_effort=best_effort,
                ),
            ]

        assert_three_way_equivalence(make, grid, capacity)


class TestPlateauLadder:
    """Caps 2 and 4 of a plateau curve run at the same size (``S[4] == 2``),
    so a ladder table keeps one row for both; Algorithms 1 and 2 must still
    decide exactly as the cache-disabled reference does."""

    def test_table_keeps_the_first_cap_of_each_run(self):
        info = synthetic_planning_job(
            "p", 3.0, 4.0, unit_grid(), 12, PLATEAU_CURVE
        )
        table = ladder_rows(info, 0)
        assert table.caps == (1, 2, 8)
        assert table.full + len(table.tail) == table.stop
        assert table.totals == sorted(table.totals)

    @settings(max_examples=40, deadline=None)
    @given(
        works=st.lists(
            st.floats(min_value=0.5, max_value=14.0), min_size=1, max_size=4
        ),
        capacity=st.integers(min_value=2, max_value=12),
    )
    def test_both_algorithms_match_reference(self, works, capacity):
        grid = unit_grid(horizon=6)

        def make():
            return [
                synthetic_planning_job(
                    f"j{i}", work, 2.5 + i, grid, 12, PLATEAU_CURVE
                )
                for i, work in enumerate(works)
            ]

        fill = AdmissionController(capacity).plan_shares(make(), grid)
        with planning_cache_disabled():
            ref = AdmissionController(capacity).plan_shares(make(), grid)
        assert fill.degraded == ref.degraded
        for job_id, plan in ref.plans.items():
            assert np.array_equal(fill.plans[job_id], plan), job_id
        assert_three_way_equivalence(make, grid, capacity)


# ------------------------------------------------------------ proposal forms
def _sequential_proposal(info, ledger):
    """What the paper-literal loop would propose (no chain state)."""
    return _propose(info, ledger, 1.0)


class TestEngineState:
    def ledger(self, capacity=8, horizon=5):
        return Ledger(capacity, horizon)

    def test_unclamped_proposal_matches_progressive_filling(self):
        ledger = self.ledger()
        info = synthetic_planning_job("a", 3.0, 4.0, unit_grid(), 8, FIG_CURVE)
        ledger.set_plan("a", np.array([1, 1, 1, 0, 0], dtype=np.int64))
        state = _ChainState(ledger)
        upgrade = _propose(info, ledger, 1.0, state=state)
        assert upgrade is not None
        assert upgrade.cap > 0
        head = np.zeros(5, dtype=np.int64)
        head[0] = 2
        exact = progressive_filling(
            info, ledger.available() + ledger.plan_view("a"), start_slot=1, head=head
        )
        assert np.array_equal(upgrade.plan, exact)
        sequential = _sequential_proposal(info, ledger)
        assert upgrade.priority == sequential.priority
        assert upgrade.new_cost == info.gpu_seconds_of(exact)
        assert state.clamped_fallbacks == 0

    def test_clamped_window_falls_back_to_exact_fill(self):
        ledger = self.ledger(capacity=4)
        info = synthetic_planning_job("a", 5.0, 4.0, unit_grid(), 4, FIG_CURVE)
        ledger.set_plan("a", np.array([1, 2, 1, 2, 0], dtype=np.int64))
        # Another job fills slot 2, so a can count only on its own GPU
        # there: below c* = 2, the window is clamped.
        ledger.set_plan("x", np.array([0, 0, 3, 0, 0], dtype=np.int64))
        state = _ChainState(ledger)
        upgrade = _propose(info, ledger, 1.0, state=state)
        assert upgrade is not None
        assert upgrade.cap == CLAMPED
        assert state.clamped_fallbacks == 1
        sequential = _sequential_proposal(info, ledger)
        assert np.array_equal(upgrade.plan, sequential.plan)
        assert upgrade.priority == sequential.priority

    def test_head_only_and_best_effort_proposals_are_slot0_only(self):
        ledger = self.ledger()
        grid = unit_grid()
        tiny = synthetic_planning_job("tiny", 1.2, 4.0, grid, 8, FIG_CURVE)
        ledger.set_plan("tiny", np.array([1, 1, 0, 0, 0], dtype=np.int64))
        be = synthetic_planning_job(
            "be", 5.0, math.inf, grid, 8, FIG_CURVE, best_effort=True
        )
        ledger.set_plan("be", np.zeros(5, dtype=np.int64))
        state = _ChainState(ledger)
        for info in (tiny, be):
            upgrade = _propose(info, ledger, 1.0, state=state)
            assert upgrade.cap == 0
            assert not upgrade.plan[1:].any()
            assert np.array_equal(
                upgrade.plan, _sequential_proposal(info, ledger).plan
            )
        assert state.clamped_fallbacks == 0

    def test_stale_unclamped_valid_iff_window_clears_cap(self):
        ledger = self.ledger()
        info = synthetic_planning_job("a", 3.0, 4.0, unit_grid(), 8, FIG_CURVE)
        ledger.set_plan("a", np.array([1, 1, 1, 0, 0], dtype=np.int64))
        state = _ChainState(ledger)
        upgrade = _propose(info, ledger, 1.0, state=state)
        assert upgrade.cap > 0
        # Another job takes capacity in a's window (slot 3, where a holds
        # nothing) but leaves exactly cap free: still valid, and a rebuild
        # reproduces the proposal exactly.
        ledger.set_plan("x", np.array([0, 0, 0, 8 - upgrade.cap, 0], dtype=np.int64))
        assert upgrade.ledger_version != ledger.version
        assert state.still_valid(upgrade, info, ledger)
        rebuilt = _propose(info, ledger, 1.0, state=_ChainState(ledger))
        assert np.array_equal(rebuilt.plan, upgrade.plan)
        assert rebuilt.priority == upgrade.priority
        # One more GPU taken in the window clamps it: no longer valid.
        ledger.set_plan(
            "x", np.array([0, 0, 0, 9 - upgrade.cap, 0], dtype=np.int64)
        )
        assert not state.still_valid(upgrade, info, ledger)
        # Slot 0 exhausted: invalid whatever the window.
        state.avail0 = upgrade.added_gpus - 1
        assert not state.still_valid(upgrade, info, ledger)

    def test_stale_clamped_is_always_rebuilt(self):
        ledger = self.ledger(capacity=4)
        info = synthetic_planning_job("a", 5.0, 4.0, unit_grid(), 4, FIG_CURVE)
        ledger.set_plan("a", np.array([1, 2, 1, 2, 0], dtype=np.int64))
        ledger.set_plan("x", np.array([0, 0, 3, 0, 0], dtype=np.int64))
        state = _ChainState(ledger)
        upgrade = _propose(info, ledger, 1.0, state=state)
        assert upgrade.cap == CLAMPED
        # A change outside a's window leaves a rebuild identical, yet the
        # clamped form is never kept.
        ledger.set_plan("y", np.array([0, 0, 0, 0, 1], dtype=np.int64))
        assert upgrade.ledger_version != ledger.version
        rebuilt = _propose(info, ledger, 1.0, state=_ChainState(ledger))
        assert np.array_equal(rebuilt.plan, upgrade.plan)
        assert not state.still_valid(upgrade, info, ledger)

    def test_current_cost_memoizes_until_refreshed(self):
        ledger = self.ledger()
        info = synthetic_planning_job("a", 3.0, 4.0, unit_grid(), 4, FIG_CURVE)
        state = _ChainState(ledger)
        plan = np.array([1, 1, 0, 0, 0], dtype=np.int64)
        cost = state.current_cost(info, plan)
        assert cost == info.gpu_seconds_of(plan)
        # Served from the memo even for a different array (apply updates it).
        other = np.array([4, 4, 4, 4, 4], dtype=np.int64)
        assert state.current_cost(info, other) == cost
        state.costs["a"] = 42.0
        assert state.current_cost(info, other) == 42.0

    def test_counters_flush_to_probe(self):
        grid = unit_grid()
        infos = [
            synthetic_planning_job("a", 3.0, 4.0, grid, 8, FIG_CURVE),
            synthetic_planning_job("b", 3.0, 4.0, grid, 8, FIG_CURVE),
        ]
        controller = AdmissionController(6)
        result = controller.plan_shares(infos, grid)
        probe.reset_counters()
        allocate_leftover(infos, result.ledger, 1.0)
        counters = probe.counters()
        assert counters["alg2_applies"] > 0
        assert counters["alg2_applies"] <= counters["alg2_heap_pops"]
        # Zero counts are not stored.
        assert counters.get("alg2_stale_valid", 0) <= counters["alg2_applies"]
        probe.reset_counters()
        assert probe.counters() == {}


# ------------------------------------------------------ differential testing
def build_instance(d):
    """A random Algorithm 2 input: views and registered plans.

    Ladders are arbitrary subsets of ``1..capacity`` with arbitrary
    (non-concave) throughputs, so priority chains need not be monotone.
    Deadlines land inside, at the edge of and past the horizon, and work
    ranges from "the head alone finishes it" to "infeasible".  Three
    families share the draws:

    - minimum shares from Algorithm 1;
    - random registered plans (fragmented capacity, clamped windows,
      tails no fill can satisfy, degraded and best-effort jobs);
    - *tight*: a few SLO jobs on a small cluster holding thin plans
      (0 or 1 GPU per slot).  The first refill reshapes a thin plan and
      can take more GPUs in a slot than before, which clamps another
      job's pending unclamped proposal — the case the stale-validity
      check exists for.
    """
    family = d.int(0, 2)
    tight = family == 2
    horizon = d.int(3, 8) if tight else d.int(2, 10)
    capacity = d.int(2, 6) if tight else d.int(1, 16)
    grid = SlotGrid(origin=0.0, slot_seconds=1.0, horizon=horizon)
    specs = []
    for index in range(d.int(2, 4) if tight else d.int(1, 5)):
        ladder = sorted({1} | {d.int(1, capacity) for _ in range(d.int(1, 4))})
        curve = {size: d.float(0.1, 4.0) for size in ladder}
        best_effort = not tight and d.int(0, 5) == 0
        if best_effort:
            deadline, work = math.inf, d.float(0.1, 10.0)
        else:
            deadline = d.float(1.0 if tight else 0.2, horizon + 1.5)
            reach = max(curve.values()) * min(deadline, horizon)
            work = d.float(0.0, 1.1 if d.int(0, 2) == 0 else 0.6) * reach
        degraded = not best_effort and not tight and d.int(0, 7) == 0
        specs.append((f"j{index}", work, deadline, curve, best_effort, degraded))

    def make_infos():
        infos = []
        for job_id, work, deadline, curve, best_effort, degraded in specs:
            info = synthetic_planning_job(
                job_id, work, deadline, grid, capacity, curve,
                best_effort=best_effort,
            )
            info.degraded = degraded
            infos.append(info)
        return infos

    plans = None
    if family:
        plans = {}
        free = np.full(horizon, capacity, dtype=np.int64)
        for job_id, _, _, curve, best_effort, _ in specs:
            plan = np.zeros(horizon, dtype=np.int64)
            for slot in range(1 if best_effort else horizon):
                options = [0] + [s for s in curve if s <= free[slot]]
                top = len(options) - 1
                plan[slot] = options[d.int(0, min(top, 1) if tight else top)]
            free -= plan
            plans[job_id] = plan
    return make_infos, grid, capacity, plans


def _solve(instance):
    """One Algorithm 2 call on fresh views; returns decisions and plans."""
    make_infos, grid, capacity, plans = instance
    infos = make_infos()
    if plans is None:
        controller = AdmissionController(capacity)
        ledger = controller.plan_shares(infos, grid).ledger
    else:
        ledger = Ledger(capacity, grid.horizon)
        for job_id, plan in plans.items():
            ledger.set_plan(job_id, plan)
    decisions = allocate_leftover(infos, ledger, grid.slot_seconds)
    return decisions, {info.job_id: ledger.plan_of(info.job_id) for info in infos}


def assert_matches_reference(instance, result=None):
    """The chain loop's result (solved here unless given) equals both the
    cache-disabled reference and the yardstick: the same paper-literal
    loop on the reference scan, on rebuilt and on cached tables."""
    decisions, plans = _solve(instance) if result is None else result
    with planning_cache_disabled():
        ref_decisions, ref_plans = _solve(instance)
    with batched_solver_disabled():
        seq_decisions, seq_plans = _solve(instance)
    assert decisions == ref_decisions == seq_decisions
    for job_id, plan in plans.items():
        assert np.array_equal(plan, ref_plans[job_id]), job_id
        assert np.array_equal(plan, seq_plans[job_id]), job_id


@st.composite
def instances(draw):
    return build_instance(HypothesisDraws(draw))


def _last_busy(plan) -> int:
    busy = np.flatnonzero(plan[1:])
    return int(busy[-1]) if busy.size else -1


class _Recorder:
    """Solves instances on the chain loop, recording what each call does."""

    def __init__(self) -> None:
        self.seen: Counter[str] = Counter()

    def observe(self, instance):
        proposals: dict[int, allocation.Upgrade] = {}
        last_priority: dict[str, float] = {}
        views: dict[str, object] = {}
        real_propose = allocation._propose
        real_fill = allocation.minimum_share
        real_set_plan = Ledger.set_plan
        real_still_valid = _ChainState.still_valid

        def propose(info, ledger, *args, **kwargs):
            upgrade = real_propose(info, ledger, *args, **kwargs)
            views[info.job_id] = info
            if upgrade is not None:
                proposals[id(upgrade.plan)] = upgrade
            return upgrade

        def fill(*args):
            fit = real_fill(*args)
            if fit is None:
                self.seen["infeasible tail"] += 1
            return fit

        def set_plan(ledger, job_id, plan, *, trusted=False):
            upgrade = proposals.get(id(plan))
            if upgrade is not None:
                self._applied(upgrade, views[job_id], ledger.plan_view(job_id))
                previous = last_priority.get(job_id)
                if previous is not None and upgrade.priority > previous:
                    self.seen["priority rose"] += 1
                last_priority[job_id] = upgrade.priority
            real_set_plan(ledger, job_id, plan, trusted=trusted)

        def still_valid(state, upgrade, info, ledger):
            # Every stale proposal judged valid must be exactly what the
            # paper-literal loop's from-scratch rebuild would propose, and
            # a stale clamped proposal is always rebuilt.
            valid = real_still_valid(state, upgrade, info, ledger)
            if upgrade.cap == CLAMPED:
                assert not valid
                self.seen["stale clamped rebuilt"] += 1
            elif valid:
                form = "unclamped" if upgrade.cap else "slot-0-only"
                self.seen[f"stale {form} kept"] += 1
                rebuilt = real_propose(info, ledger, 1.0)
                assert rebuilt is not None
                assert np.array_equal(rebuilt.plan, upgrade.plan)
                assert rebuilt.priority == upgrade.priority
            return valid

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_ChainState, "still_valid", still_valid)
            patch.setattr(allocation, "_propose", propose)
            patch.setattr(allocation, "minimum_share", fill)
            patch.setattr(Ledger, "set_plan", set_plan)
            return _solve(instance)

    def _applied(self, upgrade, info, old_plan) -> None:
        if upgrade.cap > 0:
            self.seen["unclamped"] += 1
        elif upgrade.cap == CLAMPED:
            self.seen["clamped"] += 1
        elif info.best_effort:
            self.seen["best-effort"] += 1
        elif info.degraded:
            self.seen["degraded"] += 1
        else:
            self.seen["head-only"] += 1
        if _last_busy(upgrade.plan) > _last_busy(old_plan):
            self.seen["tail lengthened"] += 1


class TestChainDifferential:
    """The chain loop against the cache-disabled reference, on random
    ladders, throughput tables, windows, capacities and plans."""

    @settings(max_examples=150, deadline=None)
    @given(instance=instances())
    def test_random_inputs_match_reference(self, instance):
        assert_matches_reference(instance)

    def test_random_inputs_reach_every_form(self):
        """Seeded instances, each checked against the reference, that
        between them apply every proposal form and hit every loop
        behaviour the validity argument must cover."""
        recorder = _Recorder()
        for seed in range(2000):
            instance = build_instance(NumpyDraws(seed))
            assert_matches_reference(instance, recorder.observe(instance))
        expected = {
            "unclamped",
            "clamped",
            "best-effort",
            "degraded",
            "head-only",
            "tail lengthened",
            "priority rose",
            "infeasible tail",
            "stale unclamped kept",
            "stale clamped rebuilt",
            "stale slot-0-only kept",
        }
        missing = expected - set(recorder.seen)
        assert not missing, f"no instance reached: {sorted(missing)}"
