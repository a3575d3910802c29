"""Tests for the incremental replanning layer.

Covers the reuse tiers added on top of the exact-match fill memo — the
retained-fill event-delta walk in ``AdmissionController`` (watermark
reuse), warm-started progressive filling, and the batched cold walk —
plus the phase probe, warm-hint pruning, and
the bounded controller cache.  The load-bearing property throughout is
*bit-identical decisions*: every fast path must reproduce exactly what the
cold solve (and the cache-disabled reference) would have produced.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.core import ElasticFlowPolicy, JobSpec
from repro.core.admission import (
    AdmissionController,
    planning_job,
    progressive_filling,
)
from repro.core.job import Job
from repro.core.plan import Ledger
from repro.core.slots import SlotGrid
from repro.perf import probe
from repro.perf.tables import (
    batched_solver_disabled,
    cache_stats,
    invalidate_planning_tables,
    planning_cache_disabled,
    reset_cache,
)
from repro.profiles import (
    OnlineThroughputModel,
    ScaledThroughputModel,
    ThroughputModel,
)
from repro.sim import ElasticExecutor, FailureSchedule, FailureWindow, Simulator
from repro.sim.interface import PolicyContext

from conftest import synthetic_planning_job

TRUE_MODEL = ThroughputModel()

THR = {1: 1.0, 2: 1.8, 4: 3.0}


def tokened_job(
    job_id,
    remaining,
    deadline,
    grid,
    capacity,
    thr=THR,
    *,
    token=1,
    best_effort=False,
):
    """A synthetic planning view carrying a cacheable table token.

    The conftest helper builds hand-tabled views (token ``-1``), which the
    fingerprint paths deliberately refuse to cache; these tests need views
    that *do* fingerprint, so the token is stamped on a copy.
    """
    info = synthetic_planning_job(
        job_id, remaining, deadline, grid, capacity, thr, best_effort=best_effort
    )
    return replace(info, tables_token=token)


def _plans_equal(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> bool:
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


# ---------------------------------------------------------- bound policies
def _bound_policy(**kwargs) -> ElasticFlowPolicy:
    policy = ElasticFlowPolicy(**kwargs)
    policy.bind(
        PolicyContext(
            cluster=ClusterSpec(n_nodes=2, gpus_per_node=8),
            throughput=TRUE_MODEL,
            slot_seconds=600.0,
        )
    )
    return policy


def _runtime_jobs(n=3) -> list[Job]:
    one = TRUE_MODEL.curve("resnet50", 128).throughput(1)
    jobs = []
    for i in range(n):
        spec = JobSpec(
            job_id=f"j{i}",
            model_name="resnet50",
            global_batch_size=128,
            max_iterations=max(1, int(one * 1800.0 * (i + 1))),
            submit_time=0.0,
            deadline=3600.0 * (i + 1),
        )
        jobs.append(Job(spec=spec))
    return jobs


class TestRepeatedRounds:
    """Identical repeat rounds replay from the admission fill memo (the
    round-fingerprint layer that used to sit above it structurally never
    hit across events and was removed — see ``docs/performance.md``)."""

    def test_identical_round_is_stable(self):
        policy = _bound_policy()
        jobs = _runtime_jobs()
        first = policy.allocate(jobs, 0.0)
        second = policy.allocate(jobs, 0.0)
        assert second == first
        controller = next(iter(policy._controllers.values()))
        assert controller.fill_cache_hits >= 1
        # Decision dicts are fresh objects: mutating one is harmless.
        second["j0"] = second.get("j0", 0) + 99
        assert policy.allocate(jobs, 0.0) == first

    def test_disabled_cache_matches(self):
        policy = _bound_policy()
        jobs = _runtime_jobs()
        cached = policy.allocate(jobs, 0.0)
        with planning_cache_disabled():
            uncached = policy.allocate(jobs, 0.0)
        assert uncached == cached

    def test_sequential_solver_matches(self):
        policy = _bound_policy()
        jobs = _runtime_jobs()
        batched = policy.allocate(jobs, 0.0)
        with batched_solver_disabled():
            sequential = _bound_policy().allocate(jobs, 0.0)
        assert sequential == batched

    def test_hysteresis_reruns_stably(self):
        policy = _bound_policy(stability_threshold=0.3)
        jobs = _runtime_jobs()
        first = policy.allocate(jobs, 0.0)
        for job in jobs:
            job.n_gpus = first.get(job.job_id, 0)
        second = policy.allocate(jobs, 0.0)
        # Current placements equal the targets, so hysteresis is a no-op
        # and the repeat round must match the solved round exactly.
        assert second == first


# ------------------------------------------------------------- delta fill
class TestDeltaFill:
    """The event-delta path must be byte-identical to the cold fill."""

    def setup_method(self):
        self.grid = SlotGrid(origin=0.0, slot_seconds=1.0, horizon=6)
        self.a = tokened_job("a", 2.0, 2.0, self.grid, 8, token=1)
        self.b = tokened_job("b", 6.0, 4.0, self.grid, 8, token=2)
        self.c = tokened_job("c", 8.0, 6.0, self.grid, 8, token=3)

    def _cold(self, infos):
        return AdmissionController(8)._fill(
            infos, self.grid, stop_on_failure=False
        )

    def _assert_matches_cold(self, result, infos):
        cold = self._cold(infos)
        assert _plans_equal(result.plans, cold.plans)
        assert result.degraded == cold.degraded
        assert result.admitted == cold.admitted
        assert result.infeasible_job == cold.infeasible_job
        assert np.array_equal(
            result.ledger.available(), cold.ledger.available()
        )

    def test_departure_reuses_the_unaffected_prefix(self):
        ctrl = AdmissionController(8)
        first = ctrl.plan_shares([self.a, self.b, self.c], self.grid,
                                 stop_on_failure=False)
        assert ctrl.delta_hits == 0
        second = ctrl.plan_shares([self.a, self.c], self.grid,
                                  stop_on_failure=False)
        assert ctrl.delta_hits == 1
        # `a` precedes the departure: watermark-reused by reference.  `c`
        # sits behind the freed capacity, so it refills.
        assert second.plans["a"] is first.plans["a"]
        assert ctrl.delta_reuses == 1 and ctrl.delta_refills == 1
        self._assert_matches_cold(second, [self.a, self.c])

    def test_arrival_refills_only_the_suffix(self):
        ctrl = AdmissionController(8)
        first = ctrl.plan_shares([self.a, self.c], self.grid,
                                 stop_on_failure=False)
        second = ctrl.plan_shares([self.a, self.b, self.c], self.grid,
                                  stop_on_failure=False)
        assert ctrl.delta_hits == 1
        assert second.plans["a"] is first.plans["a"]
        # The arrival and `c`, which sits behind the new plan, refill.
        assert ctrl.delta_reuses == 1 and ctrl.delta_refills == 2
        self._assert_matches_cold(second, [self.a, self.b, self.c])

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda b: replace(
                b, remaining_iterations=b.remaining_iterations - 1.0
            ),
            lambda b: replace(b, tables_token=99),
        ],
        ids=["remaining_change", "curve_correction"],
    )
    def test_view_change_refills_the_changed_job(self, mutate):
        ctrl = AdmissionController(8)
        first = ctrl.plan_shares([self.a, self.b, self.c], self.grid,
                                 stop_on_failure=False)
        b2 = mutate(self.b)
        second = ctrl.plan_shares([self.a, b2, self.c], self.grid,
                                  stop_on_failure=False)
        assert ctrl.delta_hits == 1
        assert second.plans["a"] is first.plans["a"]
        self._assert_matches_cold(second, [self.a, b2, self.c])

    def test_deadline_change_is_departure_plus_arrival(self):
        ctrl = AdmissionController(8)
        ctrl.plan_shares([self.a, self.b, self.c], self.grid,
                         stop_on_failure=False)
        b2 = tokened_job("b", 6.0, 5.0, self.grid, 8, token=2)
        second = ctrl.plan_shares([self.a, b2, self.c], self.grid,
                                  stop_on_failure=False)
        assert ctrl.delta_hits == 1
        self._assert_matches_cold(second, [self.a, b2, self.c])

    def test_best_effort_jobs_stay_zero(self):
        ctrl = AdmissionController(8)
        be = tokened_job("be", 4.0, float("inf"), self.grid, 8,
                         token=4, best_effort=True)
        ctrl.plan_shares([self.a, self.b, be], self.grid,
                         stop_on_failure=False)
        second = ctrl.plan_shares([self.a, be], self.grid,
                                  stop_on_failure=False)
        assert ctrl.delta_hits == 1
        assert not second.plans["be"].any() and not be.degraded
        self._assert_matches_cold(second, [self.a, be])

    def test_degraded_flag_survives_reuse(self):
        ctrl = AdmissionController(8)
        hopeless = tokened_job("hopeless", 100.0, 1.0, self.grid, 8, token=5)
        first = ctrl.plan_shares([hopeless, self.c], self.grid,
                                 stop_on_failure=False)
        assert first.degraded == {"hopeless"}
        c2 = replace(self.c, remaining_iterations=7.0)
        second = ctrl.plan_shares([hopeless, c2], self.grid,
                                  stop_on_failure=False)
        assert ctrl.delta_hits == 1 and ctrl.delta_reuses == 1
        assert hopeless.degraded and second.degraded == {"hopeless"}
        assert not second.admitted and second.infeasible_job == "hopeless"
        self._assert_matches_cold(second, [hopeless, c2])

    def test_grid_change_falls_back_to_full_fill(self):
        ctrl = AdmissionController(8)
        ctrl.plan_shares([self.a, self.b], self.grid, stop_on_failure=False)
        shifted = SlotGrid(origin=1.0, slot_seconds=1.0, horizon=6)
        a2 = tokened_job("a", 2.0, 3.0, shifted, 8, token=1)
        b2 = tokened_job("b", 6.0, 5.0, shifted, 8, token=2)
        result = ctrl.plan_shares([a2, b2], shifted, stop_on_failure=False)
        assert ctrl.delta_hits == 0  # retained fill was for another grid
        cold = AdmissionController(8)._fill([a2, b2], shifted,
                                            stop_on_failure=False)
        assert _plans_equal(result.plans, cold.plans)

    def test_saturated_window_refill_matches_cold(self):
        # At capacity 5 `c` has no headroom left behind the departure, so
        # its refill is clamped and must still land on the cold plan.
        a = tokened_job("a", 2.0, 2.0, self.grid, 5, token=1)
        b = tokened_job("b", 6.0, 4.0, self.grid, 5, token=2)
        c = tokened_job("c", 8.0, 6.0, self.grid, 5, token=3)
        ctrl = AdmissionController(5)
        ctrl.plan_shares([a, b, c], self.grid, stop_on_failure=False)
        second = ctrl.plan_shares([a, c], self.grid, stop_on_failure=False)
        assert ctrl.delta_reuses == 1 and ctrl.delta_refills == 1
        cold = AdmissionController(5)._fill([a, c], self.grid,
                                            stop_on_failure=False)
        assert _plans_equal(second.plans, cold.plans)

    def test_departure_delta_matches_sequential_solver(self):
        # The delta walk and the sequential yardstick (which re-solves
        # every fill cold) must agree bit for bit on the same sequence.
        batched = AdmissionController(8)
        batched.plan_shares([self.a, self.b, self.c], self.grid,
                            stop_on_failure=False)
        fast = batched.plan_shares([self.a, self.c], self.grid,
                                   stop_on_failure=False)
        assert batched.delta_hits == 1
        with batched_solver_disabled():
            sequential = AdmissionController(8)
            sequential.plan_shares([self.a, self.b, self.c], self.grid,
                                   stop_on_failure=False)
            slow = sequential.plan_shares([self.a, self.c], self.grid,
                                          stop_on_failure=False)
        assert sequential.delta_hits == 0
        assert _plans_equal(fast.plans, slow.plans)
        assert fast.degraded == slow.degraded
        assert np.array_equal(fast.ledger.used, slow.ledger.used)

    def test_exact_repeat_prefers_the_fill_memo(self):
        ctrl = AdmissionController(8)
        infos = [self.a, self.b, self.c]
        first = ctrl.plan_shares(infos, self.grid, stop_on_failure=False)
        second = ctrl.plan_shares(infos, self.grid, stop_on_failure=False)
        assert ctrl.fill_cache_hits == 1 and ctrl.delta_hits == 0
        assert _plans_equal(first.plans, second.plans)
        assert second.plans["a"] is first.plans["a"]  # shared, not copied


# --------------------------------------------------------- warm-hint bound
class TestWarmHintPruning:
    def test_prune_drops_only_stale_jobs(self):
        grid = SlotGrid(origin=0.0, slot_seconds=1.0, horizon=6)
        a = tokened_job("a", 2.0, 2.0, grid, 8, token=1)
        b = tokened_job("b", 6.0, 4.0, grid, 8, token=2)
        ctrl = AdmissionController(8)
        ctrl.plan_shares([a, b], grid, stop_on_failure=False)
        assert {key[0] for key in ctrl.warm_hints} == {"a", "b"}
        dropped = ctrl.prune_warm_hints({"a"})
        assert dropped == 1
        assert {key[0] for key in ctrl.warm_hints} == {"a"}
        # Pruning is decision-neutral: hints are verified before use, so a
        # re-solve after pruning reproduces the cold fill exactly.
        second = ctrl.plan_shares([a, b], grid, stop_on_failure=False)
        cold = AdmissionController(8)._fill([a, b], grid,
                                            stop_on_failure=False)
        assert _plans_equal(second.plans, cold.plans)


# ------------------------------------------------------------- warm hints
class TestWarmHints:
    def setup_method(self):
        reset_cache()
        self.grid = SlotGrid(origin=0.0, slot_seconds=1.0, horizon=6)
        # remaining 5.0 over 4 usable slots: cap 1 yields 4.0 (infeasible),
        # cap 2 yields 7.2 -> the scan settles on cap 2.
        self.info = tokened_job("j", 5.0, 4.0, self.grid, 8)
        self.available = np.full(6, 8, dtype=np.int64)
        self.baseline = progressive_filling(self.info, self.available)

    def test_round_trip_records_then_verifies_the_cap(self):
        hints: dict[tuple[str, int], int] = {}
        first = progressive_filling(
            self.info, self.available, warm_hints=hints
        )
        assert np.array_equal(first, self.baseline)
        assert hints[("j", 0)] == 2
        assert cache_stats()["warm_misses"] == 1
        second = progressive_filling(
            self.info, self.available, warm_hints=hints
        )
        assert np.array_equal(second, self.baseline)
        assert cache_stats()["warm_hits"] == 1

    @pytest.mark.parametrize(
        "hint", [1, 3, 4, 16], ids=["infeasible", "unknown", "oversized", "beyond"]
    )
    def test_bad_hints_fall_back_and_self_correct(self, hint):
        """Infeasible, unknown, and non-minimal hints must all lose the
        verification and route to the full scan, bit-identically."""
        hints = {("j", 0): hint}
        plan = progressive_filling(self.info, self.available, warm_hints=hints)
        assert np.array_equal(plan, self.baseline)
        assert hints[("j", 0)] == 2
        assert cache_stats()["warm_hits"] == 0

    def test_infeasible_fill_drops_its_hint(self):
        hopeless = tokened_job("h", 100.0, 2.0, self.grid, 8)
        hints = {("h", 0): 2}
        assert progressive_filling(
            hopeless, self.available, warm_hints=hints
        ) is None
        assert ("h", 0) not in hints

    def test_reference_path_ignores_hints(self):
        hints = {("j", 0): 4}  # deliberately wrong; must stay untouched
        with planning_cache_disabled():
            plan = progressive_filling(
                self.info, self.available, warm_hints=hints
            )
        assert np.array_equal(plan, self.baseline)
        assert hints == {("j", 0): 4}


# ------------------------------------------------- bounded controller cache
class TestControllerCacheBound:
    def test_lru_eviction_and_identity(self):
        policy = ElasticFlowPolicy()
        limit = ElasticFlowPolicy.CONTROLLER_CACHE_LIMIT
        keeper = policy._controller(1)
        for capacity in range(2, limit + 2):
            policy._controller(capacity)
        assert len(policy._controllers) == limit
        assert 1 not in policy._controllers  # oldest evicted
        # Touching an entry refreshes it past newer insertions.
        survivor = policy._controller(2)
        policy._controller(limit + 2)
        assert 2 in policy._controllers and 3 not in policy._controllers
        assert policy._controller(2) is survivor
        assert policy._controller(1) is not keeper  # rebuilt after eviction


# -------------------------------------------------------- ledger bulk load
class TestLedgerLoadPlans:
    def test_bulk_load_adopts_and_freezes(self):
        ledger = Ledger(8, 5)
        p1 = np.array([2, 2, 0, 0, 0], dtype=np.int64)
        p2 = np.array([1, 0, 1, 0, 0], dtype=np.int64)
        used = p1 + p2
        ledger.load_plans({"a": p1, "b": p2}, used)
        assert ledger.version == 1
        assert np.array_equal(ledger.available(), 8 - used)
        assert ledger.plan_view("a") is p1 and not p1.flags.writeable
        # The ledger stays a live ledger: incremental mutation still works.
        ledger.remove_plan("a")
        assert np.array_equal(ledger.available(), 8 - p2)
        assert ledger.version == 2


# ---------------------------------------------------------- planning views
class TestPlanningFrameViews:
    """Views served by ``_PlanningFrame.refresh`` must equal fresh
    ``planning_job`` builds field by field, including the usable-window
    seeds the frame plants instead of scanning the weights."""

    def _jobs(self):
        jobs = _runtime_jobs(3)
        jobs[1].iterations_done = 123.456
        best_effort = JobSpec(
            job_id="be",
            model_name="bert",
            global_batch_size=64,
            max_iterations=5000,
            submit_time=0.0,
        )
        return jobs + [Job(spec=best_effort)]

    def assert_views_match(self, policy, jobs, grid):
        views = policy._frame.refresh(jobs, grid)
        assert [view.job_id for view in views] == [job.job_id for job in jobs]
        for job, view in zip(jobs, views):
            fresh = planning_job(
                job,
                policy._planning_curve(job),
                grid,
                policy.context.total_gpus,
                safety_margin=policy.safety_margin,
                deadline_padding_s=policy.deadline_padding_s,
            )
            assert view.remaining_iterations == fresh.remaining_iterations
            assert type(view.remaining_iterations) is float
            assert view.deadline == fresh.deadline
            assert type(view.deadline) is float
            assert view.weights.dtype == fresh.weights.dtype
            assert view.weights.tobytes() == fresh.weights.tobytes()
            assert view.window(0) == fresh.window(0)
            assert view.window(1) == fresh.window(1)
            assert view.tables_token == fresh.tables_token
            assert view.best_effort == fresh.best_effort
        return views

    def test_refresh_matches_fresh_views_across_origins(self):
        reset_cache()
        policy = _bound_policy(safety_margin=0.03, deadline_padding_s=60.0)
        jobs = self._jobs()
        first = self.assert_views_match(policy, jobs, policy._grid(0.0, jobs))
        assert first[-1].best_effort and first[-1].deadline == float("inf")
        # At t=3300 j0's padding is the proportional 0.1 * 300 s, not the
        # 60 s cap, and every view is refreshed in place, not rebuilt.
        jobs[0].iterations_done = 77.5
        second = self.assert_views_match(policy, jobs, policy._grid(3300.0, jobs))
        assert second[0].deadline == 3600.0 - 30.0
        assert all(a is b for a, b in zip(first, second))

    def test_refresh_after_invalidation_rebuilds_views(self):
        reset_cache()
        policy = _bound_policy(safety_margin=0.03, deadline_padding_s=60.0)
        jobs = self._jobs()
        first = self.assert_views_match(policy, jobs, policy._grid(0.0, jobs))
        invalidate_planning_tables(policy._planning_curve(jobs[0]))
        second = self.assert_views_match(policy, jobs, policy._grid(600.0, jobs))
        # The three resnet50 views share the invalidated curve and carry
        # the rebuilt tables; the bert view keeps its table identity.
        for before, after in zip(first[:3], second[:3]):
            assert after is not before
            assert after.tables_token != before.tables_token
        assert second[3] is first[3]


# ------------------------------------------------------------- phase probe
class TestPhaseProbe:
    def test_dormant_probe_is_a_noop(self):
        assert not probe.active()
        assert probe.tick() == 0.0
        assert probe.lap("alg1", 0.0) == 0.0
        assert probe.end_event() == {}

    def test_recording_attributes_phases(self):
        recorder = probe.PhaseRecorder()
        with probe.recording(recorder):
            assert probe.active()
            probe.begin_event()
            mark = probe.tick()
            assert mark > 0.0
            mark = probe.lap("views", mark)
            probe.lap("alg1", mark)
            event = probe.end_event()
        assert set(event) == {"views", "alg1"}
        assert all(v >= 0.0 for v in event.values())
        assert recorder.events == [event]
        assert not probe.active()

    def test_allocate_splits_into_phases(self):
        policy = _bound_policy()
        jobs = _runtime_jobs()
        recorder = probe.PhaseRecorder()
        with probe.recording(recorder):
            probe.begin_event()
            policy.allocate(jobs, 0.0)
            solved = probe.end_event()
            probe.begin_event()
            policy.allocate(jobs, 0.0)
            replayed = probe.end_event()
        assert {"views", "alg1", "alg2"} <= set(solved)
        # The repeat round replays from the fill memo, which lives inside
        # the alg1 lap — every phase still shows up.
        assert {"views", "alg1", "alg2"} <= set(replayed)


# --------------------------------------------------- end-to-end equivalence
def _digest(result):
    return sorted(
        (
            o.job_id,
            o.status.value,
            o.admitted,
            o.completion_time,
            o.scale_events,
        )
        for o in result.outcomes
    )


def _disrupted_workload():
    """A trace that exercises every invalidation source at once: a node
    failure and repair mid-trace, online-profiling curve corrections from a
    biased prior, best-effort arrivals, and deadline-tight SLO jobs."""
    rng = np.random.default_rng(7)
    specs = []
    for i in range(14):
        model, batch = ("resnet50", 128) if i % 2 else ("vgg16", 128)
        one = TRUE_MODEL.curve(model, batch).throughput(1)
        seconds = float(rng.uniform(600.0, 2400.0))
        submit = float(rng.uniform(0.0, 3000.0))
        slack = float(rng.uniform(0.8, 1.6))
        specs.append(
            JobSpec(
                job_id=f"slo{i}",
                model_name=model,
                global_batch_size=batch,
                max_iterations=max(1, int(one * seconds)),
                submit_time=submit,
                deadline=submit + slack * seconds,
            )
        )
    for i in range(2):
        one = TRUE_MODEL.curve("resnet50", 128).throughput(1)
        specs.append(
            JobSpec(
                job_id=f"be{i}",
                model_name="resnet50",
                global_batch_size=128,
                max_iterations=max(1, int(one * 900.0)),
                submit_time=float(rng.uniform(0.0, 1500.0)),
                deadline=None,
            )
        )
    schedule = FailureSchedule(
        windows=(FailureWindow(start=900.0, end=2700.0, node_index=0),)
    )
    return specs, schedule


def _run_disrupted(specs, schedule):
    online = OnlineThroughputModel(ScaledThroughputModel(TRUE_MODEL, 1.3))

    def hook(job, n_gpus, rate):
        online.observe(
            job.spec.model_name, job.spec.global_batch_size, n_gpus, rate
        )

    policy = ElasticFlowPolicy(
        safety_margin=0.03,
        deadline_padding_s=60.0,
        stability_threshold=0.3,
        planning_throughput=online,
    )
    result = Simulator(
        ClusterSpec(n_nodes=2, gpus_per_node=8),
        policy,
        specs,
        throughput=TRUE_MODEL,
        executor=ElasticExecutor.disabled(),
        failures=schedule,
        observation_hook=hook,
        slot_seconds=600.0,
        record_timeline=False,
    ).run()
    return result, policy


def test_disrupted_trace_equivalence_and_reuse():
    """Failure + repair + online curve corrections mid-trace: the warm and
    delta paths must stay byte-identical to the cache-disabled reference —
    and must demonstrably have been exercised."""
    specs, schedule = _disrupted_workload()
    reset_cache()
    cached, policy = _run_disrupted(specs, schedule)
    stats = cache_stats()
    with planning_cache_disabled():
        uncached, _ = _run_disrupted(specs, schedule)
    assert _digest(cached) == _digest(uncached)

    # The incremental layers actually carried load on the cached run.
    controllers = list(policy._controllers.values())
    assert len(controllers) >= 2  # healthy and degraded capacities
    assert sum(c.fill_cache_hits for c in controllers) > 0
    assert sum(c.delta_hits for c in controllers) > 0
    assert sum(c.delta_reuses for c in controllers) > 0
    assert stats["warm_hits"] > 0
