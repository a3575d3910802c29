"""Tests for the chain-native Algorithm 2 upgrade loop.

The default path (``_allocate_chained``) must be *decision-equivalent* to
the sequential revalidating loop and to the cache-disabled reference —
same final plans, bit for bit — because the escape hatches exist precisely
to prove that.  The equivalence classes here run the identical scenario
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
from repro.core.admission import progressive_filling
from repro.core.allocation import _LadderRows, _propose
from repro.perf import probe
from repro.perf.tables import batched_solver_disabled, planning_cache_disabled

from conftest import synthetic_planning_job

FIG_CURVE = {1: 1.0, 2: 1.5, 4: 2.0}


def unit_grid(horizon: int = 5) -> SlotGrid:
    return SlotGrid(origin=0.0, slot_seconds=1.0, horizon=horizon)


def run_algorithm2(make_infos, grid, capacity, warm_hints=None):
    """Algorithm 1 then Algorithm 2 on fresh views; returns final plans."""
    infos = make_infos()
    controller = AdmissionController(capacity)
    result = controller.plan_shares(infos, grid, stop_on_failure=False)
    decisions = allocate_leftover(
        infos, result.ledger, grid.slot_seconds, warm_hints=warm_hints
    )
    plans = {info.job_id: result.ledger.plan_of(info.job_id) for info in infos}
    return decisions, plans


def assert_three_way_equivalence(make_infos, grid, capacity, warm_hints=None):
    """Chain loop == sequential solver == cache-disabled reference."""

    def hints():
        return None if warm_hints is None else dict(warm_hints)

    chain_decisions, chain_plans = run_algorithm2(
        make_infos, grid, capacity, hints()
    )
    with batched_solver_disabled():
        seq_decisions, seq_plans = run_algorithm2(
            make_infos, grid, capacity, hints()
        )
    with planning_cache_disabled():
        ref_decisions, ref_plans = run_algorithm2(
            make_infos, grid, capacity, hints()
        )
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

        assert_three_way_equivalence(make, grid, 6, warm_hints={})

    def test_best_effort_and_slo_mix(self):
        grid = unit_grid()

        def make():
            return [
                synthetic_planning_job("slo", 3.0, 2.0, grid, 4, FIG_CURVE),
                synthetic_planning_job(
                    "be", 5.0, math.inf, grid, 4, FIG_CURVE, best_effort=True
                ),
            ]

        assert_three_way_equivalence(make, grid, 4, warm_hints={})

    def test_junk_warm_hints_are_harmless(self):
        """Hints pointing at caps outside the ladder must not change plans."""
        grid = unit_grid()

        def make():
            return [
                synthetic_planning_job("a", 3.0, 4.0, grid, 8, FIG_CURVE),
                synthetic_planning_job("b", 2.5, 4.0, grid, 8, FIG_CURVE),
            ]

        junk = {("a", 1): 3, ("b", 1): 999, ("ghost", 1): 2}
        assert_three_way_equivalence(make, grid, 6, warm_hints=junk)

    def test_warm_hints_reused_across_calls(self):
        """A second pass with the hints the first populated stays equivalent."""
        grid = unit_grid()

        def make():
            return [
                synthetic_planning_job("a", 3.0, 4.0, grid, 8, FIG_CURVE),
                synthetic_planning_job("b", 3.0, 4.0, grid, 8, FIG_CURVE),
            ]

        hints: dict = {}
        run_algorithm2(make, grid, 6, hints)  # populate
        assert_three_way_equivalence(make, grid, 6, warm_hints=hints)

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

        assert_three_way_equivalence(make, grid, capacity, warm_hints={})


# ------------------------------------------------------------ proposal forms
def _sequential_proposal(info, ledger):
    """What the sequential loop would propose (exact fill, no ladder rows)."""
    return _propose(info, ledger, 1.0)


class TestEngineState:
    def ledger(self, capacity=8, horizon=5):
        return Ledger(capacity, horizon)

    def test_unclamped_proposal_matches_progressive_filling(self):
        ledger = self.ledger()
        info = synthetic_planning_job("a", 3.0, 4.0, unit_grid(), 8, FIG_CURVE)
        ledger.set_plan("a", np.array([1, 1, 1, 0, 0], dtype=np.int64))
        rows = _LadderRows(ledger)
        upgrade = _propose(info, ledger, 1.0, rows=rows)
        assert upgrade is not None
        assert upgrade.cap > 0 and upgrade.available is None
        head = np.zeros(5, dtype=np.int64)
        head[0] = 2
        exact = progressive_filling(
            info, ledger.available() + ledger.plan_view("a"), start_slot=1, head=head
        )
        assert np.array_equal(upgrade.plan, exact)
        sequential = _sequential_proposal(info, ledger)
        assert upgrade.priority == sequential.priority
        assert upgrade.new_cost == info.gpu_seconds_of(exact)
        assert rows.clamped_fallbacks == 0

    def test_clamped_window_falls_back_to_exact_fill(self):
        ledger = self.ledger(capacity=4)
        info = synthetic_planning_job("a", 5.0, 4.0, unit_grid(), 4, FIG_CURVE)
        ledger.set_plan("a", np.array([1, 2, 1, 2, 0], dtype=np.int64))
        # Another job fills slot 2, so a can count only on its own GPU
        # there: below c* = 2, the window is clamped.
        ledger.set_plan("x", np.array([0, 0, 3, 0, 0], dtype=np.int64))
        rows = _LadderRows(ledger)
        upgrade = _propose(info, ledger, 1.0, rows=rows)
        assert upgrade is not None
        assert upgrade.cap == 0 and upgrade.available is not None
        assert rows.clamped_fallbacks == 1
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
        rows = _LadderRows(ledger)
        for info in (tiny, be):
            upgrade = _propose(info, ledger, 1.0, rows=rows)
            assert upgrade.cap == 0 and upgrade.available is None
            assert not upgrade.plan[1:].any()
            assert np.array_equal(
                upgrade.plan, _sequential_proposal(info, ledger).plan
            )
        assert rows.clamped_fallbacks == 0

    def test_stale_unclamped_valid_iff_window_clears_cap(self):
        ledger = self.ledger()
        info = synthetic_planning_job("a", 3.0, 4.0, unit_grid(), 8, FIG_CURVE)
        ledger.set_plan("a", np.array([1, 1, 1, 0, 0], dtype=np.int64))
        rows = _LadderRows(ledger)
        upgrade = _propose(info, ledger, 1.0, rows=rows)
        assert upgrade.cap > 0
        # Another job takes capacity in a's window (slot 3, where a holds
        # nothing) but leaves exactly cap free: still valid, and a rebuild
        # reproduces the proposal exactly.
        ledger.set_plan("x", np.array([0, 0, 0, 8 - upgrade.cap, 0], dtype=np.int64))
        assert upgrade.ledger_version != ledger.version
        assert rows.still_valid(upgrade, info, ledger)
        rebuilt = _propose(info, ledger, 1.0, rows=_LadderRows(ledger))
        assert np.array_equal(rebuilt.plan, upgrade.plan)
        assert rebuilt.priority == upgrade.priority
        # One more GPU taken in the window clamps it: no longer valid.
        ledger.set_plan(
            "x", np.array([0, 0, 0, 9 - upgrade.cap, 0], dtype=np.int64)
        )
        assert not rows.still_valid(upgrade, info, ledger)
        # Slot 0 exhausted: invalid whatever the window.
        rows.avail0 = upgrade.added_gpus - 1
        assert not rows.still_valid(upgrade, info, ledger)

    def test_current_cost_memoizes_until_refreshed(self):
        ledger = self.ledger()
        info = synthetic_planning_job("a", 3.0, 4.0, unit_grid(), 4, FIG_CURVE)
        rows = _LadderRows(ledger)
        plan = np.array([1, 1, 0, 0, 0], dtype=np.int64)
        cost = rows.current_cost(info, plan)
        assert cost == info.gpu_seconds_of(plan)
        # Served from the memo even for a different array (apply updates it).
        other = np.array([4, 4, 4, 4, 4], dtype=np.int64)
        assert rows.current_cost(info, other) == cost
        rows.costs["a"] = 42.0
        assert rows.current_cost(info, other) == 42.0

    def test_counters_flush_to_probe(self):
        grid = unit_grid()
        infos = [
            synthetic_planning_job("a", 3.0, 4.0, grid, 8, FIG_CURVE),
            synthetic_planning_job("b", 3.0, 4.0, grid, 8, FIG_CURVE),
        ]
        controller = AdmissionController(6)
        result = controller.plan_shares(infos, grid, stop_on_failure=False)
        probe.reset_counters()
        allocate_leftover(infos, result.ledger, 1.0, warm_hints={})
        counters = probe.counters()
        assert counters["alg2_applies"] > 0
        assert counters["alg2_applies"] <= counters["alg2_heap_pops"]
        # Zero counts are not stored.
        assert counters.get("alg2_stale_valid", 0) <= counters["alg2_applies"]
        probe.reset_counters()
        assert probe.counters() == {}


# ------------------------------------------------------ differential testing
class _NumpyDraws:
    """Primitive draws from a seeded numpy generator."""

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)

    def int(self, lo: int, hi: int) -> int:
        return int(self._rng.integers(lo, hi + 1))

    def float(self, lo: float, hi: float) -> float:
        return float(self._rng.uniform(lo, hi))


class _HypothesisDraws:
    """The same primitive draws through hypothesis (so failures shrink)."""

    def __init__(self, draw) -> None:
        self._draw = draw

    def int(self, lo: int, hi: int) -> int:
        return self._draw(st.integers(min_value=lo, max_value=hi))

    def float(self, lo: float, hi: float) -> float:
        return self._draw(
            st.floats(min_value=lo, max_value=hi, allow_nan=False)
        )


def build_instance(d):
    """A random Algorithm 2 input: views, registered plans and hints.

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
    hint_mode = d.int(0, 2)
    hints = None if hint_mode == 0 else {}
    if hint_mode == 2:
        for job_id, *_ in specs:
            hints[(job_id, 1)] = d.int(1, capacity + 1)
    return make_infos, grid, capacity, plans, hints


def _solve(instance):
    """One Algorithm 2 call on fresh views; returns decisions and plans."""
    make_infos, grid, capacity, plans, hints = instance
    infos = make_infos()
    if plans is None:
        controller = AdmissionController(capacity)
        ledger = controller.plan_shares(infos, grid, stop_on_failure=False).ledger
    else:
        ledger = Ledger(capacity, grid.horizon)
        for job_id, plan in plans.items():
            ledger.set_plan(job_id, plan)
    decisions = allocate_leftover(
        infos,
        ledger,
        grid.slot_seconds,
        warm_hints=None if hints is None else dict(hints),
    )
    return decisions, {info.job_id: ledger.plan_of(info.job_id) for info in infos}


def assert_matches_reference(instance, result=None):
    """The chain loop's result (solved here unless given) equals both the
    cache-disabled reference and the sequential loop."""
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
    return build_instance(_HypothesisDraws(draw))


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
        real_fill = allocation.progressive_filling
        real_set_plan = Ledger.set_plan
        real_still_valid = _LadderRows.still_valid

        def propose(info, ledger, *args, **kwargs):
            upgrade = real_propose(info, ledger, *args, **kwargs)
            views[info.job_id] = info
            if upgrade is not None:
                proposals[id(upgrade.plan)] = upgrade
            return upgrade

        def fill(info, available, **kwargs):
            plan = real_fill(info, available, **kwargs)
            if plan is None:
                self.seen["infeasible tail"] += 1
            return plan

        def set_plan(ledger, job_id, plan, *, trusted=False):
            upgrade = proposals.get(id(plan))
            if upgrade is not None:
                self._applied(upgrade, views[job_id], ledger.plan_view(job_id))
                previous = last_priority.get(job_id)
                if previous is not None and upgrade.priority > previous:
                    self.seen["priority rose"] += 1
                last_priority[job_id] = upgrade.priority
            real_set_plan(ledger, job_id, plan, trusted=trusted)

        def still_valid(rows, upgrade, info, ledger):
            # Every stale proposal judged valid must be exactly what the
            # sequential loop's from-scratch rebuild would propose.
            valid = real_still_valid(rows, upgrade, info, ledger)
            if valid:
                form = "unclamped" if upgrade.cap else (
                    "clamped" if upgrade.available is not None else "slot-0-only"
                )
                self.seen[f"stale {form} kept"] += 1
                rebuilt = real_propose(info, ledger, 1.0)
                assert rebuilt is not None
                assert np.array_equal(rebuilt.plan, upgrade.plan)
                assert rebuilt.priority == upgrade.priority
            return valid

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_LadderRows, "still_valid", still_valid)
            patch.setattr(allocation, "_propose", propose)
            patch.setattr(allocation, "progressive_filling", fill)
            patch.setattr(Ledger, "set_plan", set_plan)
            return _solve(instance)

    def _applied(self, upgrade, info, old_plan) -> None:
        if upgrade.cap:
            self.seen["unclamped"] += 1
        elif upgrade.available is not None:
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
            instance = build_instance(_NumpyDraws(seed))
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
            "stale clamped kept",
            "stale slot-0-only kept",
        }
        missing = expected - set(recorder.seen)
        assert not missing, f"no instance reached: {sorted(missing)}"
