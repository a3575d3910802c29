"""Ladder tables built from the per-curve constant-slot prefix.

:func:`repro.core.admission.ladder_rows` no longer runs a cumsum per
table: each row is the table set's constant-weight prefix (shared by every
view of that curve and capacity) followed by the few remaining weights
accumulated on top.  These properties check the result is bit-identical to
the plain ``np.cumsum(thr * weights[start:stop], axis=1)`` rows — totals,
every row entry, and every unclamped fill against the reference scan —
on frame-refreshed views at random origins, deadlines within a few ulps
of a slot boundary, widened slots, infinite deadlines, hand-built views
with arbitrary weights, and after an online-profiling invalidation.
"""

from bisect import bisect_left
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import ClusterSpec
from repro.core.admission import (
    CLAMPED,
    PlanningJob,
    _progressive_filling_reference,
    ladder_rows,
    minimum_share,
)
from repro.core.job import Job, JobSpec
from repro.core.scheduler import ElasticFlowPolicy
from repro.numeric import EPS
from repro.perf import probe
from repro.perf.tables import LadderPrefix, planning_tables_for, reset_cache
from repro.profiles import ThroughputModel
from repro.profiles.online import OnlineThroughputModel
from repro.sim.interface import PolicyContext

MODELS = ("resnet50", "bert", "vgg16")
#: Slot widths, two of them not exactly representable (their grids space
#: slot starts unevenly, which is what puts two partial slots in a window).
SLOTS = (0.3, 1.0 / 3.0, 7.7, 600.0)


def cumsum_table(info: PlanningJob, start: int):
    """``(stop, caps, rows)`` the way the tables were built per fill."""
    stop = start + info.window(start)
    sizes = np.asarray(info.sizes, dtype=np.int64)
    runnable = info.size_table[sizes]
    first = np.flatnonzero(np.diff(runnable, prepend=-1))
    thr = info.throughput_table[runnable[first]][:, None]
    rows = np.cumsum(thr * info.weights[start:stop], axis=1)
    return stop, tuple(sizes[first].tolist()), rows


def table_row(table, i: int) -> list[float]:
    """Row ``i`` of a ladder table, materialized: prefix, then the tail."""
    values = list(table.prefix[i][: table.full]) if table.full else []
    acc = values[-1] if values else 0.0
    for weight in table.tail:
        acc += table.thr[i] * weight
        values.append(acc)
    return values


def assert_bit_identical(info: PlanningJob, start: int):
    table = ladder_rows(info, start)
    stop, caps, rows = cumsum_table(info, start)
    assert table.stop == stop
    if stop == start or not info.sizes:
        assert table.caps == () and table.totals == []
        return table
    assert table.caps == caps
    assert np.asarray(table.totals).tobytes() == rows[:, -1].tobytes()
    for i in range(len(caps)):
        assert np.asarray(table_row(table, i)).tobytes() == rows[i].tobytes(), (start, i)
    return table


def works_for(table, draw_index: int, draw_slot: int, ulps: int) -> list[float]:
    """Work amounts whose thresholds land on, beside and past row entries."""
    if not table.caps:
        return []
    i = draw_index % len(table.caps)
    row = table_row(table, i)
    k = draw_slot % len(row)
    work = row[k] + EPS
    step = np.inf if ulps >= 0 else -np.inf
    for _ in range(abs(ulps)):
        work = float(np.nextafter(work, step))
    return [work, 0.5 * table.totals[i], table.totals[-1] * 1.5 + 1.0]


def assert_unclamped_fills_match(info: PlanningJob, works: list[float]):
    """Every fill the ladder serves equals the reference scan on
    unclamped capacity, from slot 0 (Algorithm 1's fast accept) and from
    slot 1 behind each possible head (Algorithm 2's tail refill)."""
    horizon = len(info.weights)
    capacity = len(info.size_table) - 1
    free = np.full(horizon, capacity, dtype=np.int64)
    table = ladder_rows(info, 0)
    for work in works:
        view = replace(info, remaining_iterations=work)
        expected = _progressive_filling_reference(view, free)
        if not table.caps or work <= EPS:
            continue
        fit = minimum_share(
            info_with(info, work), np.zeros(horizon, dtype=np.int64), 0, free[: table.stop]
        )
        if bisect_left(table.totals, work - EPS) == len(table.caps):
            assert fit is None and expected is None
            continue
        # Unclamped capacity: the plan is read off the ladder table.
        assert fit is not None and fit[1] > 0, work
        assert np.array_equal(fit[0], expected), work
    if horizon < 2:
        return
    stop = 1 + info.window(1)
    for head_size in (0, *info.sizes):
        for work in works:
            view = replace(info, remaining_iterations=work)
            head = np.zeros(horizon, dtype=np.int64)
            head[0] = head_size
            fit = minimum_share(info_with(info, work), head.copy(), 1, free[1:stop])
            expected = _progressive_filling_reference(
                view, free, start_slot=1, head=head
            )
            if fit is None:
                # On unclamped capacity only an infeasible tail (no row
                # reaches the work, or no window) leaves the ladder out.
                assert expected is None
                continue
            assert fit[1] != CLAMPED
            assert np.array_equal(fit[0], expected), (head_size, work)


def info_with(info: PlanningJob, work: float) -> PlanningJob:
    """``info`` with another work amount, keeping its seeded memos."""
    view = replace(info, remaining_iterations=work)
    view.__dict__.update(
        {k: v for k, v in info.__dict__.items() if k in ("_full", "_windows")}
    )
    return view


# ------------------------------------------------------------ frame views
def bound_policy(slot: float, *, max_horizon: int = 2048, throughput=None):
    policy = ElasticFlowPolicy(max_horizon=max_horizon, planning_throughput=throughput)
    policy.bind(
        PolicyContext(
            cluster=ClusterSpec(n_nodes=2, gpus_per_node=8),
            throughput=ThroughputModel(),
            slot_seconds=slot,
        )
    )
    return policy


def job(job_id: str, deadline: float | None, model: str = "resnet50") -> Job:
    return Job(
        spec=JobSpec(
            job_id=job_id,
            model_name=model,
            global_batch_size=128,
            max_iterations=50_000,
            submit_time=0.0,
            deadline=deadline,
        )
    )


@st.composite
def frame_cases(draw):
    """Frame-refreshed views: random origin and slot, one far deadline
    (past ``max_horizon`` slots when ``widen``), best-effort jobs, and
    deadlines a few ulps around the grid's slot starts."""
    slot = draw(st.sampled_from(SLOTS))
    now = draw(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    widen = draw(st.booleans())
    max_horizon = 8 if widen else 64
    slots = st.floats(min_value=9.0, max_value=40.0) if widen else st.floats(1.5, 7.5)
    span = slot * draw(slots)
    policy = bound_policy(slot, max_horizon=max_horizon)
    jobs = [job("far", now + span, draw(st.sampled_from(MODELS)))]
    grid = policy._grid(now, jobs)
    starts = grid.origin + np.arange(grid.horizon) * grid.slot_seconds
    for n in range(draw(st.integers(min_value=0, max_value=4))):
        k = draw(st.integers(min_value=1, max_value=grid.horizon - 1))
        deadline = float(starts[k])
        ulps = draw(st.integers(min_value=-3, max_value=3))
        for _ in range(abs(ulps)):
            deadline = float(np.nextafter(deadline, np.inf if ulps > 0 else -np.inf))
        if 0.0 < deadline <= now + span:
            jobs.append(job(f"b{n}", deadline, draw(st.sampled_from(MODELS))))
    if draw(st.booleans()):
        jobs.append(job("best-effort", None))
    grid = policy._grid(now, jobs)
    if widen:
        assert grid.slot_seconds > slot
    return policy._frame.refresh(jobs, grid)


class TestFrameViews:
    @settings(max_examples=60, deadline=None)
    @given(
        views=frame_cases(),
        draw_index=st.integers(min_value=0, max_value=64),
        draw_slot=st.integers(min_value=0, max_value=4096),
        ulps=st.integers(min_value=-2, max_value=2),
    )
    def test_tables_and_fills_bit_identical(self, views, draw_index, draw_slot, ulps):
        for view in views:
            weight, run = view.full_run()
            count = int(np.count_nonzero(view.weights == weight))
            assert run == (count if count >= 2 else 0)
            # The frame's seed follows the rule of the unseeded path.
            fresh = replace(view)
            assert fresh.full_run()[1] == run
            if run:
                assert fresh.full_run()[0] == weight
            for start in (0, 1):
                assert_bit_identical(view, start)
            works = works_for(ladder_rows(view, 0), draw_index, draw_slot, ulps)
            assert_unclamped_fills_match(view, works)

    def test_window_with_two_partial_slots(self):
        # Slot starts 0.3 apart but rounded: the slot before the deadline
        # weighs 0.2999999999999998 and the next 8.9e-16.
        origin, deadline = 5.118216247002567, 7.5182162470025675
        policy = bound_policy(0.3)
        jobs = [job("j", deadline)]
        (view,) = policy._frame.refresh(jobs, policy._grid(origin, jobs))
        weight, run = view.full_run()
        assert weight == 0.3 and run == 7 and view.window(0) == 9
        probe.reset_counters()
        for start in (0, 1):
            table = assert_bit_identical(view, start)
            assert len(table.tail) == 2
        assert probe.counters()["ladder_long_tails"] == 2
        works = [row + EPS for row in table_row(ladder_rows(view, 0), 0)]
        assert_unclamped_fills_match(view, works)

    def test_infinite_deadline_is_all_prefix(self):
        policy = bound_policy(600.0)
        jobs = [job("far", 6000.0), job("be", None)]
        views = policy._frame.refresh(jobs, policy._grid(0.0, jobs))
        best_effort = views[1]
        for start in (0, 1):
            table = assert_bit_identical(best_effort, start)
            assert table.full == 10 - start and table.tail == []

    def test_prefix_shared_by_views_of_one_curve(self):
        reset_cache()
        policy = bound_policy(600.0)
        jobs = [job("a", 3000.0), job("b", 6000.0), job("c", 4500.0, "bert")]
        a, b, c = policy._frame.refresh(jobs, policy._grid(0.0, jobs))
        assert a.tables is b.tables and a.tables is not c.tables
        probe.reset_counters()
        ladder_rows(b, 0)  # the longest run of the curve builds its prefix
        ladder_rows(a, 0)
        ladder_rows(a, 1)
        assert probe.counters()["ladder_prefix_builds"] == 1
        assert len(b.tables.ladder.prefix(600.0, 1)[0]) == b.full_run()[1]


class TestPrefixStore:
    def test_one_width_held_and_grown_in_place(self):
        tables = planning_tables_for(ThroughputModel().curve("resnet50", 128), 16)
        ladder = LadderPrefix(tables.sizes, tables.throughput_table, tables.size_table)
        thr = np.asarray(ladder.thr)[:, None]

        def expected(weight, length):
            return np.cumsum(np.repeat(thr * weight, length, axis=1), axis=1)

        probe.reset_counters()
        rows = ladder.prefix(600.0, 3)
        assert ladder.prefix(600.0, 2) is rows  # long enough: no build
        assert ladder.prefix(600.0, 5) is rows  # grown in place
        assert np.asarray(rows).tobytes() == expected(600.0, 5).tobytes()
        widened = ladder.prefix(734.5, 2)  # another width replaces it
        assert widened is not rows
        assert np.asarray(widened).tobytes() == expected(734.5, 2).tobytes()
        again = ladder.prefix(600.0, 4)
        assert again is not rows
        assert np.asarray(again).tobytes() == expected(600.0, 4).tobytes()
        assert probe.counters()["ladder_prefix_builds"] == 4


# ------------------------------------------------------------ hand-built
@st.composite
def hand_built(draw):
    """A view with arbitrary non-negative, non-monotone weights (runs of
    repeated values included) and a random throughput table."""
    capacity = draw(st.integers(min_value=1, max_value=16))
    sizes = sorted(
        draw(st.sets(st.integers(min_value=1, max_value=capacity), min_size=1, max_size=6))
    )
    thr = {s: draw(st.floats(min_value=0.1, max_value=50.0)) for s in sizes}
    throughput_table = np.zeros(capacity + 1)
    size_table = np.zeros(capacity + 1, dtype=np.int64)
    best_size, best_thr = 0, 0.0
    for x in range(1, capacity + 1):
        if x in thr and thr[x] > best_thr:
            best_size, best_thr = x, thr[x]
        throughput_table[x] = best_thr
        size_table[x] = best_size
    weight = st.one_of(
        st.sampled_from([0.0, 1.0, 2.5, 0.1]),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    )
    weights = np.asarray(draw(st.lists(weight, min_size=1, max_size=14)))
    return PlanningJob(
        job_id="h",
        remaining_iterations=1.0,
        deadline=float(len(weights)),
        weights=weights,
        throughput_table=throughput_table,
        size_table=size_table,
        sizes=sizes,
    )


class TestHandBuiltViews:
    @settings(max_examples=80, deadline=None)
    @given(
        info=hand_built(),
        draw_index=st.integers(min_value=0, max_value=64),
        draw_slot=st.integers(min_value=0, max_value=64),
        ulps=st.integers(min_value=-2, max_value=2),
    )
    def test_tables_and_fills_bit_identical(self, info, draw_index, draw_slot, ulps):
        for start in (0, 1):
            assert_bit_identical(info, start)
        works = works_for(ladder_rows(info, 0), draw_index, draw_slot, ulps)
        assert_unclamped_fills_match(info, works)


# ------------------------------------------------------ online profiling
class TestAfterInvalidation:
    def test_prefix_rebuilt_with_the_new_tables(self):
        reset_cache()
        online = OnlineThroughputModel(ThroughputModel())
        policy = bound_policy(600.0, throughput=online)
        jobs = [job("a", 5400.0), job("b", 3000.0)]
        before = policy._frame.refresh(jobs, policy._grid(0.0, jobs))
        old = before[0].tables
        assert_bit_identical(before[0], 0)
        assert old.ladder.prefix(600.0, 1)  # populated
        online.observe("resnet50", 128, 2, 0.5 * old.throughput_table[2])
        after = policy._frame.refresh(jobs, policy._grid(600.0, jobs))
        assert after[0].tables is not old and after[0].tables.ladder is not old.ladder
        for view in after:
            for start in (0, 1):
                assert_bit_identical(view, start)
        table = ladder_rows(after[0], 0)
        assert table.thr != old.ladder.thr
