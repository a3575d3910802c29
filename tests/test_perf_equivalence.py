"""Decision-equivalence regression: the fast path must change nothing.

Two layers of evidence:

- A hypothesis sweep over randomized planning instances asserting the
  vectorized fill and the reference scan return bit-identical plans.
- A seeded end-to-end trace simulated twice — planning caches on, then
  under :func:`planning_cache_disabled` — asserting identical outcomes
  job for job (admission, completion time, scale events).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.admission import (
    AdmissionController,
    PlanningJob,
    _progressive_filling_reference,
    progressive_filling,
)
from repro.core.scheduler import ElasticFlowPolicy
from repro.core.slots import SlotGrid
from repro.cluster.topology import ClusterSpec
from repro.perf.tables import (
    batched_solver_disabled,
    planning_cache_disabled,
    reset_cache,
)
from repro.profiles import ThroughputModel
from repro.sim.engine import Simulator
from repro.traces.synthetic import ClusterTraceConfig, generate_trace
from repro.traces.workload import build_jobs

from conftest import synthetic_planning_job


# --------------------------------------------------------------- unit level
@st.composite
def fill_instances(draw):
    horizon = draw(st.integers(min_value=1, max_value=12))
    grid = SlotGrid(origin=0.0, slot_seconds=1.0, horizon=horizon)
    capacity = draw(st.sampled_from([1, 2, 4, 8]))
    n_sizes = draw(st.integers(min_value=1, max_value=3))
    sizes = sorted(
        draw(
            st.lists(
                st.sampled_from([1, 2, 3, 4, 6, 8]),
                min_size=n_sizes,
                max_size=n_sizes,
                unique=True,
            )
        )
    )
    sizes = [s for s in sizes if s <= capacity] or [1]
    thr = {}
    last = 0.0
    for s in sizes:
        last += draw(st.floats(min_value=0.1, max_value=2.0))
        thr[s] = last
    remaining = draw(st.floats(min_value=0.0, max_value=30.0))
    deadline = draw(st.floats(min_value=0.5, max_value=float(horizon)))
    info = synthetic_planning_job("j", remaining, deadline, grid, capacity, thr)
    # Availability may legitimately include zeros and (defensively) negatives.
    available = np.array(
        draw(
            st.lists(
                st.integers(min_value=-1, max_value=capacity),
                min_size=horizon,
                max_size=horizon,
            )
        ),
        dtype=np.int64,
    )
    start_slot = draw(st.integers(min_value=0, max_value=min(1, horizon - 1)))
    head = None
    if start_slot == 1:
        head = np.zeros(horizon, dtype=np.int64)
        head[0] = draw(st.sampled_from([0] + sizes))
    return info, available, start_slot, head


class TestFillEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(fill_instances())
    def test_fast_fill_matches_reference_bit_for_bit(self, instance):
        info, available, start_slot, head = instance
        fast = progressive_filling(
            info, available, start_slot=start_slot, head=head
        )
        reference = _progressive_filling_reference(
            info, available, start_slot=start_slot, head=head
        )
        if reference is None:
            assert fast is None
        else:
            assert fast is not None
            assert np.array_equal(fast, reference)

    def test_interior_zero_weights_are_respected(self):
        """Hand-built views may carry zero-weight slots *inside* the
        window; the fast path's window must span them, not stop early."""
        grid = SlotGrid(origin=0.0, slot_seconds=1.0, horizon=6)
        info = synthetic_planning_job("j", 3.0, 6.0, grid, 4, {1: 1.0})
        info.weights = info.weights.copy()
        info.weights[2] = 0.0  # a dead slot inside the usable window
        available = np.full(6, 4, dtype=np.int64)
        fast = progressive_filling(info, available)
        reference = _progressive_filling_reference(info, available)
        assert fast is not None and reference is not None
        assert np.array_equal(fast, reference)


@st.composite
def windowed_views(draw):
    """A view whose usable window is shorter than the horizon, plus a plan.

    Horizons start at 9 so that ``np.sum``'s blocked pairwise reduction
    groups the window's terms differently from the horizon's."""
    horizon = draw(st.integers(min_value=9, max_value=64))
    window = draw(st.integers(min_value=1, max_value=horizon - 1))
    capacity = 8
    weights = np.zeros(horizon)
    weights[:window] = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=600.0),
            min_size=window,
            max_size=window,
        )
    )
    steps = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=5.0),
            min_size=capacity,
            max_size=capacity,
        )
    )
    throughput_table = np.concatenate(([0.0], np.cumsum(steps)))
    plan = np.array(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=capacity),
                min_size=horizon,
                max_size=horizon,
            )
        ),
        dtype=np.int64,
    )
    info = PlanningJob(
        job_id="j",
        remaining_iterations=1.0,
        deadline=float(window),
        weights=weights,
        throughput_table=throughput_table,
        size_table=np.arange(capacity + 1, dtype=np.int64),
        sizes=list(range(1, capacity + 1)),
    )
    return info, plan


class TestWindowedSums:
    """``progress_of`` and ``gpu_seconds_of`` feed Algorithm 2's priority
    comparisons, so the cache-disabled reference must round them exactly
    as production does."""

    @settings(max_examples=200, deadline=None)
    @given(windowed_views())
    def test_cached_and_reference_sums_agree(self, instance):
        info, plan = instance
        cached = (info.progress_of(plan), info.gpu_seconds_of(plan))
        with planning_cache_disabled():
            reference = (info.progress_of(plan), info.gpu_seconds_of(plan))
        assert cached == reference


# -------------------------------------------------------- controller level
@st.composite
def controller_scenarios(draw):
    """A randomized multi-job admission instance plus a perturbation
    sequence: each step re-plans some subset of the jobs with rescaled
    remaining work, exercising the delta walk's departures, arrivals,
    watermark reuses, and refills."""
    horizon = draw(st.integers(min_value=4, max_value=10))
    capacity = draw(st.sampled_from([4, 8]))
    n_jobs = draw(st.integers(min_value=2, max_value=5))
    jobs = []
    for i in range(n_jobs):
        n_sizes = draw(st.integers(min_value=1, max_value=3))
        sizes = sorted(
            draw(
                st.lists(
                    st.sampled_from([1, 2, 3, 4, 6, 8]),
                    min_size=n_sizes,
                    max_size=n_sizes,
                    unique=True,
                )
            )
        )
        sizes = [s for s in sizes if s <= capacity] or [1]
        thr = {}
        last = 0.0
        for s in sizes:
            last += draw(st.floats(min_value=0.1, max_value=2.0))
            thr[s] = last
        remaining = draw(st.floats(min_value=0.5, max_value=30.0))
        best_effort = i > 0 and draw(st.booleans())
        deadline = (
            float("inf")
            if best_effort
            else draw(st.floats(min_value=0.5, max_value=float(horizon)))
        )
        jobs.append((f"j{i}", remaining, deadline, thr, best_effort))
    n_steps = draw(st.integers(min_value=2, max_value=4))
    steps = []
    for _ in range(n_steps):
        live = sorted(
            draw(
                st.sets(
                    st.integers(min_value=0, max_value=n_jobs - 1), min_size=1
                )
            )
        )
        steps.append(
            [
                (idx, draw(st.floats(min_value=0.3, max_value=1.0)))
                for idx in live
            ]
        )
    return horizon, capacity, jobs, steps


def _run_scenario(scenario, mode):
    """Drive one controller through the whole perturbation sequence.

    Fresh planning views are built per run from the same concrete scenario
    data, so every mode plans identical inputs; ``reference`` re-solves
    each step from scratch under the cache-disabled escape hatch."""
    horizon, capacity, jobs, steps = scenario
    grid = SlotGrid(origin=0.0, slot_seconds=1.0, horizon=horizon)
    ctrl = AdmissionController(capacity)
    outputs = []
    for step in steps:
        infos = []
        for idx, factor in step:
            job_id, remaining, deadline, thr, best_effort = jobs[idx]
            info = synthetic_planning_job(
                job_id,
                remaining * factor,
                deadline,
                grid,
                capacity,
                thr,
                best_effort=best_effort,
            )
            infos.append(replace(info, tables_token=idx + 1))
        if mode == "reference":
            with planning_cache_disabled():
                result = ctrl.plan_shares(infos, grid, stop_on_failure=False)
        else:
            result = ctrl.plan_shares(infos, grid, stop_on_failure=False)
        outputs.append(
            (
                {k: v.copy() for k, v in result.plans.items()},
                set(result.degraded),
                result.admitted,
                result.infeasible_job,
                result.ledger.used.copy(),
            )
        )
    return outputs


class TestBatchedSolverEquivalence:
    """The batched commit walk (cold and delta) must be bit-identical to
    the sequential per-job solver and to the cache-disabled reference
    across whole perturbation sequences."""

    @settings(max_examples=80, deadline=None)
    @given(controller_scenarios())
    def test_batched_sequential_and_reference_agree(self, scenario):
        batched = _run_scenario(scenario, "batched")
        with batched_solver_disabled():
            sequential = _run_scenario(scenario, "sequential")
        reference = _run_scenario(scenario, "reference")
        for fast, slow, ref in zip(batched, sequential, reference):
            for other in (slow, ref):
                assert set(fast[0]) == set(other[0])
                for job_id in fast[0]:
                    assert np.array_equal(fast[0][job_id], other[0][job_id])
                assert fast[1] == other[1]  # degraded sets
                assert fast[2] == other[2]  # admitted
                assert fast[3] == other[3]  # infeasible job
                assert np.array_equal(fast[4], other[4])  # ledger used


# --------------------------------------------------------------- end to end
def _simulate(specs, cluster, throughput):
    sim = Simulator(
        cluster,
        ElasticFlowPolicy(
            safety_margin=0.03, deadline_padding_s=60.0, stability_threshold=0.3
        ),
        specs,
        throughput=throughput,
        slot_seconds=600.0,
        record_timeline=False,
    )
    return sim.run()


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


@pytest.mark.parametrize("seed", [3, 7, 11, 13])
def test_trace_decisions_identical_with_and_without_cache(seed):
    """A seeded trace must produce byte-identical scheduling outcomes with
    every production layer on (memos, planning frame, vectorized sim
    advance) and under the cache-disabled reference."""
    config = ClusterTraceConfig(
        "equivalence",
        64,
        120,
        target_load=1.1,
        duration_median_s=2000.0,
        duration_sigma=1.2,
    )
    trace = generate_trace(config, seed=seed)
    throughput = ThroughputModel()
    specs = build_jobs(trace, throughput, seed=seed)
    cluster = ClusterSpec(n_nodes=8, gpus_per_node=8)

    reset_cache()
    cached = _simulate(specs, cluster, throughput)
    with planning_cache_disabled():
        uncached = _simulate(specs, cluster, throughput)

    assert _digest(cached) == _digest(uncached)
