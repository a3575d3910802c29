"""Regression coverage for the persistent per-event planning layers.

Two layers replaced the per-event rebuild-everything pattern: the
persistent planning frame (``scheduler._PlanningFrame``) and the
vectorized sim advance (``engine._ProgressSoA``).  Their decision parity
against the cache-disabled reference is asserted end to end in
``tests/test_perf_equivalence.py``; this module pins the supporting
invariants (the slot-grid batch math the frame relies on, the rate-memo
eviction, the full-slot seeds the ladder tables read).
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import ClusterSpec
from repro.core.admission import ladder_rows
from repro.core.job import Job, JobSpec
from repro.core.scheduler import ElasticFlowPolicy
from repro.core.slots import SlotGrid
from repro.perf import probe
from repro.perf.tables import batched_solver_disabled, reset_cache
from repro.profiles import ThroughputModel
from repro.sim.engine import Simulator
from repro.sim.interface import PolicyContext
from repro.traces.synthetic import ClusterTraceConfig, generate_trace
from repro.traces.workload import build_jobs

from conftest import synthetic_planning_job


# ------------------------------------------------------- slot-grid batch math
@st.composite
def grid_instances(draw):
    origin = draw(
        st.floats(min_value=0.0, max_value=1e7, allow_nan=False, allow_infinity=False)
    )
    slot_seconds = draw(st.floats(min_value=0.01, max_value=3600.0))
    horizon = draw(st.integers(min_value=1, max_value=64))
    grid = SlotGrid(origin=origin, slot_seconds=slot_seconds, horizon=horizon)
    n = draw(st.integers(min_value=1, max_value=8))
    deadlines = []
    for _ in range(n):
        if draw(st.booleans()):
            deadlines.append(math.inf)
        else:
            # Deadlines before, inside, and past the horizon are all legal.
            deadlines.append(
                origin
                + draw(st.floats(min_value=-1.0, max_value=float(horizon) + 2.0))
                * slot_seconds
            )
    return grid, deadlines


class TestSlotGridBatchEquivalence:
    """The planning frame's correctness anchor: the batched weight matrix
    and window ends must be bit-identical to the scalar per-job path for
    any origin, slot width, and deadline mix (including infinities)."""

    @settings(max_examples=300, deadline=None)
    @given(grid_instances())
    def test_weights_matrix_rows_bit_identical(self, instance):
        grid, deadlines = instance
        rows = grid.weights_matrix(np.asarray(deadlines, dtype=np.float64))
        assert rows.shape == (len(deadlines), grid.horizon)
        assert not rows.flags.writeable
        for i, deadline in enumerate(deadlines):
            scalar = grid.weights_until(deadline)
            assert np.array_equal(rows[i], scalar), (
                f"row {i} (deadline {deadline}) diverged from weights_until"
            )

    @settings(max_examples=300, deadline=None)
    @given(grid_instances())
    def test_window_ends_match_scalar_windows(self, instance):
        grid, deadlines = instance
        ends = grid.window_ends(np.asarray(deadlines, dtype=np.float64))
        for i, deadline in enumerate(deadlines):
            weights = grid.weights_until(deadline)
            nonzero = np.flatnonzero(weights)
            scalar = int(nonzero[-1]) + 1 if nonzero.size else 0
            assert int(ends[i]) == scalar, (
                f"window end for deadline {deadline} diverged from the "
                f"last-nonzero-weight scan"
            )


# ------------------------------------------------------------- workload
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
    return sim, sim.run()


def _workload(seed):
    config = ClusterTraceConfig(
        "persistent-layers",
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
    return specs, cluster, throughput


# ------------------------------------------------------------ rate-memo leak
def test_rate_memo_evicted_at_completion():
    """Completed jobs must leave no rate-memo entries behind: on a trace
    where the simulator runs to completion the memo ends empty, so it can
    no longer grow one entry set per job ever run (the leak this guards
    against)."""
    specs, cluster, throughput = _workload(seed=7)
    reset_cache()
    sim, result = _simulate(specs, cluster, throughput)
    completed = [o for o in result.outcomes if o.status.value == "completed"]
    assert completed, "workload must complete jobs for the test to bite"
    assert sim._rate_memo == {}, (
        f"rate memo leaked entries for {sorted(sim._rate_memo)[:5]}..."
    )


# ------------------------------------------------------ per-view ladders
class TestEventRowStore:
    """Ladder tables (:func:`ladder_rows`) read each view's full-slot run,
    which the planning frame seeds on every refresh; a refresh that moves
    the grid must re-seed it, and the fast accepts the tables serve must
    land plans bit-identical to the sequential fill."""

    THR = {1: 1.0, 2: 1.8, 8: 3.0}
    CAPACITY = 9

    def _infos(self, grid, ids, remaining, deadline):
        infos = []
        for i, job_id in enumerate(ids):
            info = synthetic_planning_job(
                job_id, remaining, deadline, grid, self.CAPACITY, self.THR
            )
            infos.append(replace(info, tables_token=i + 1))
        return infos

    def test_rows_reset_when_grid_moves(self):
        reset_cache()
        policy = ElasticFlowPolicy()
        policy.bind(
            PolicyContext(
                cluster=ClusterSpec(n_nodes=2, gpus_per_node=8),
                throughput=ThroughputModel(),
                slot_seconds=600.0,
            )
        )
        jobs = [
            Job(
                spec=JobSpec(
                    job_id=f"j{i}",
                    model_name="resnet50",
                    global_batch_size=128,
                    max_iterations=50_000,
                    submit_time=0.0,
                    deadline=3600.0 * (i + 1),
                )
            )
            for i in range(3)
        ]
        first = policy._frame.refresh(jobs, policy._grid(0.0, jobs))
        old = [(ladder_rows(view, 0), ladder_rows(view, 1)) for view in first]
        # A new origin rewrites every view's weights in place; the tables
        # built after it must follow the new weights (a stale full-slot
        # seed would read one prefix slot too many).
        second = policy._frame.refresh(jobs, policy._grid(300.0, jobs))
        assert all(a is b for a, b in zip(first, second))
        for view, tables in zip(second, old):
            fresh = replace(view)  # same inputs, nothing seeded
            assert view.full_run() == fresh.full_run()
            for start, stale in enumerate(tables):
                table = ladder_rows(view, start)
                expected = ladder_rows(fresh, start)
                assert table[:4] == expected[:4]
                assert table.totals != stale.totals
                assert table.prefix == expected.prefix
                assert table.tail == expected.tail

    def test_delta_fast_accepts_are_bit_identical(self):
        from repro.core.admission import AdmissionController

        reset_cache()
        ctrl = AdmissionController(self.CAPACITY)
        grid1 = SlotGrid(origin=0.0, slot_seconds=1.0, horizon=8)
        ids = ["j0", "j1", "j2", "j3"]
        ctrl.plan_shares(self._infos(grid1, ids, 5.0, 4.0), grid1)
        grid2 = SlotGrid(origin=0.5, slot_seconds=1.0, horizon=8)
        baseline = self._infos(grid2, ids, 5.0, 4.0)
        ctrl.plan_shares(baseline, grid2)
        # A fill with one more job on the same grid: an earlier-deadline
        # arrival perturbs the suffix, forcing refills of the jobs whose
        # rows the previous fill just solved.
        arrival = replace(
            synthetic_planning_job(
                "new", 1.5, 3.4, grid2, self.CAPACITY, self.THR
            ),
            tables_token=50,
        )
        trial_infos = [arrival] + self._infos(grid2, ids, 5.0, 4.0)
        probe.reset_counters()
        trial = ctrl.plan_shares(trial_infos, grid2)
        counters = probe.counters()
        assert counters.get("alg1_delta_walks") == 1
        assert counters.get("alg1_fast_accepts", 0) > 0, (
            "the trial delta never hit the ladder fast accept; the "
            "scenario no longer exercises the reuse tier"
        )
        # The sequential solver fills the identical trial set with the
        # reference scan (no ladder tables, no retained fill): every plan
        # must match bit for bit.
        cold_infos = [
            replace(
                synthetic_planning_job(
                    "new", 1.5, 3.4, grid2, self.CAPACITY, self.THR
                ),
                tables_token=50,
            )
        ] + self._infos(grid2, ids, 5.0, 4.0)
        probe.reset_counters()
        with batched_solver_disabled():
            cold_ctrl = AdmissionController(self.CAPACITY)
            cold = cold_ctrl.plan_shares(cold_infos, grid2)
        counters = probe.counters()
        assert "alg1_delta_walks" not in counters
        assert "alg1_fast_accepts" not in counters
        assert not any("_ladder" in info.__dict__ for info in cold_infos)
        assert set(trial.plans) == set(cold.plans)
        for job_id, plan in cold.plans.items():
            assert np.array_equal(trial.plans[job_id], plan), job_id
        assert trial.admitted == cold.admitted
        assert trial.degraded == cold.degraded
        assert np.array_equal(trial.ledger.used, cold.ledger.used)
