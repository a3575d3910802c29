"""Decision-equivalence regression: the fast path must change nothing.

Two layers of evidence:

- A hypothesis sweep and a seeded sweep over randomized planning
  instances asserting the production fill and the reference scan return
  bit-identical plans; the seeded sweep also checks that its instances
  reach every way a fill can be decided.
- A seeded end-to-end trace simulated twice — planning caches on, then
  under :func:`planning_cache_disabled` — asserting identical outcomes
  job for job (admission, completion time, scale events).
"""

from collections import Counter
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
from repro.numeric import EPS
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

from conftest import HypothesisDraws, NumpyDraws, synthetic_planning_job


# --------------------------------------------------------------- unit level
def build_fill_instance(d):
    """A random single-job fill: ladder, throughputs, work, window, head
    and availability.

    Throughput steps may be flat or falling, so several caps can share
    one runnable size.  Availability either sits above a drawn floor, so
    windows range from never clamped to clamped in every slot, or mixes
    full and nearly empty slots; zeros and (defensively) negatives occur
    too.
    """
    horizon = d.int(1, 12)
    grid = SlotGrid(origin=0.0, slot_seconds=1.0, horizon=horizon)
    capacity = (1, 2, 4, 8)[d.int(0, 3)]
    menu = [s for s in (1, 2, 3, 4, 6, 8) if s <= capacity]
    sizes = sorted({menu[d.int(0, len(menu) - 1)] for _ in range(d.int(1, 5))})
    thr = {}
    last = 0.0
    for s in sizes:
        step = 0.0 if d.int(0, 3) == 0 else d.float(-1.0, 2.0)
        last = max(0.1, last + step)
        thr[s] = last
    deadline = d.float(0.5, float(horizon))
    # From "the head alone finishes it" to "no cap can".
    remaining = d.float(0.0, 1.3) * max(thr.values()) * deadline
    info = synthetic_planning_job("j", remaining, deadline, grid, capacity, thr)
    if d.int(0, 1):
        floor = d.int(-1, capacity)
        free = [d.int(floor, capacity) for _ in range(horizon)]
    else:  # full and nearly empty slots: higher caps pay off unevenly
        free = [capacity if d.int(0, 1) else d.int(-1, 1) for _ in range(horizon)]
    available = np.array(free, dtype=np.int64)
    start_slot = d.int(0, min(1, horizon - 1))
    head = None
    if start_slot == 1:
        head = np.zeros(horizon, dtype=np.int64)
        head[0] = ([0] + sizes)[d.int(0, len(sizes))]
    return info, available, start_slot, head


@st.composite
def fill_instances(draw):
    return build_fill_instance(HypothesisDraws(draw))


def assert_fill_matches_reference(info, available, start_slot, head):
    fast = progressive_filling(info, available, start_slot=start_slot, head=head)
    reference = _progressive_filling_reference(
        info, available, start_slot=start_slot, head=head
    )
    if reference is None:
        assert fast is None
    else:
        assert fast is not None
        assert np.array_equal(fast, reference)


def fill_outcome(info, available, start_slot, head) -> str:
    """How the fill is decided, worked out from the paper's loop alone:
    ``c*`` is the first cap whose unclamped fill covers the work."""
    required = info.remaining_iterations
    if head is not None:
        required -= float(
            (info.throughput_table[head[:start_slot]] * info.weights[:start_slot]).sum()
        )
    if required <= EPS:
        return "head-only"
    stop = start_slot + info.window(start_slot)
    if stop == start_slot:
        return "no window"
    weights = info.weights[start_slot:stop]
    free = np.maximum(available[start_slot:stop], 0)

    def first_feasible(free):
        for cap in info.sizes:
            x = info.size_table[np.minimum(cap, free)]
            if np.cumsum(info.throughput_table[x] * weights)[-1] >= required - EPS:
                return cap
        return None

    best = first_feasible(np.full(len(free), max(info.sizes)))
    if best is None:
        return "no row reaches the work"
    if free.min() >= best:
        return "unclamped"
    answer = first_feasible(free)
    if answer is None:
        return "clamped infeasible"
    if info.size_table[answer] == info.size_table[best]:
        return "clamped answered at c*"
    return "clamped answered above c*"


class TestFillEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(fill_instances())
    def test_fast_fill_matches_reference_bit_for_bit(self, instance):
        assert_fill_matches_reference(*instance)

    def test_seeded_fills_reach_every_outcome(self):
        """Seeded instances, each checked against the reference, that
        between them reach every way a fill can be decided."""
        seen: Counter[str] = Counter()
        for seed in range(1500):
            info, available, start_slot, head = build_fill_instance(NumpyDraws(seed))
            assert_fill_matches_reference(info, available, start_slot, head)
            outcome = fill_outcome(info, available, start_slot, head)
            seen[outcome] += 1
            runnable = info.size_table[list(info.sizes)]
            if outcome not in ("head-only", "no window") and len(
                set(runnable.tolist())
            ) < len(runnable):
                seen["caps share a runnable size"] += 1
        expected = {
            "head-only",
            "no window",
            "no row reaches the work",
            "unclamped",
            "clamped answered at c*",
            "clamped answered above c*",
            "clamped infeasible",
            "caps share a runnable size",
        }
        missing = expected - set(seen)
        assert not missing, f"no instance reached: {sorted(missing)} ({seen})"

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
    sequence.  The first step plans a subset of the jobs; each later step
    either re-plans a new subset with rescaled remaining work (departures
    and arrivals, filled cold), repeats the previous step verbatim (an
    exact repeat, adopted whole), repeats it with one job's throughput
    table scaled under a new token (an online-profiling correction), or
    repeats it on a grid shifted by one slot (the previous fill must not
    be adopted)."""
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
    n_steps = draw(st.integers(min_value=2, max_value=5))
    origin = 0.0
    corrections: dict[int, tuple[float, int]] = {}  # idx -> (scale, token)
    steps = []
    for number in range(n_steps):
        kind = "new"
        if steps:
            kind = draw(st.sampled_from(["new", "repeat", "correct", "shift"]))
        if kind == "new":
            live = sorted(
                draw(
                    st.sets(
                        st.integers(min_value=0, max_value=n_jobs - 1),
                        min_size=1,
                    )
                )
            )
            step = [
                (idx, draw(st.floats(min_value=0.3, max_value=1.0)))
                for idx in live
            ]
        else:
            step = steps[-1][1]
        if kind == "correct":
            idx = draw(st.sampled_from([idx for idx, _ in step]))
            scale = draw(st.sampled_from([0.5, 0.8, 1.25, 2.0]))
            corrections = {**corrections, idx: (scale, 100 + number)}
        elif kind == "shift":
            origin += 1.0
        steps.append((origin, step, corrections))
    return horizon, capacity, jobs, steps


def _run_scenario(scenario, mode):
    """Drive one controller through the whole perturbation sequence.

    Fresh planning views are built per run from the same concrete scenario
    data, so every mode plans identical inputs; ``reference`` re-solves
    each step from scratch under the cache-disabled escape hatch, and
    ``cold`` solves each step with a fresh controller."""
    horizon, capacity, jobs, steps = scenario
    ctrl = AdmissionController(capacity)
    outputs = []
    for origin, step, corrections in steps:
        grid = SlotGrid(origin=origin, slot_seconds=1.0, horizon=horizon)
        infos = []
        for idx, factor in step:
            job_id, remaining, deadline, thr, best_effort = jobs[idx]
            scale, token = corrections.get(idx, (1.0, idx + 1))
            info = synthetic_planning_job(
                job_id,
                remaining * factor,
                deadline,
                grid,
                capacity,
                {size: rate * scale for size, rate in thr.items()},
                best_effort=best_effort,
            )
            infos.append(replace(info, tables_token=token))
        if mode == "reference":
            with planning_cache_disabled():
                result = ctrl.plan_shares(infos, grid)
        elif mode == "cold":
            result = AdmissionController(capacity).plan_shares(infos, grid)
        else:
            result = ctrl.plan_shares(infos, grid)
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
    """The batched commit walk and its exact repeats must be bit-identical
    to the sequential per-job solver, to the cache-disabled reference and to
    a fresh controller's cold fill across whole perturbation sequences."""

    @settings(max_examples=80, deadline=None)
    @given(controller_scenarios())
    def test_batched_sequential_and_reference_agree(self, scenario):
        batched = _run_scenario(scenario, "batched")
        with batched_solver_disabled():
            sequential = _run_scenario(scenario, "sequential")
        reference = _run_scenario(scenario, "reference")
        cold = _run_scenario(scenario, "cold")
        for fast, *others in zip(batched, sequential, reference, cold):
            for other in others:
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
