"""Regression coverage for the persistent per-event planning layers.

Two layers replaced the per-event rebuild-everything pattern: the
persistent planning frame (``scheduler._PlanningFrame``) and the
vectorized sim advance (``engine._ProgressSoA``).  Their decision parity
against the cache-disabled reference is asserted end to end in
``tests/test_perf_equivalence.py``; this module pins the supporting
invariants (the slot-grid batch math the frame relies on, the rate-memo
eviction, the event-scoped row store).
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import ClusterSpec
from repro.core.batch import WarmRowBatch
from repro.core.scheduler import ElasticFlowPolicy
from repro.core.slots import SlotGrid
from repro.perf.tables import reset_cache
from repro.profiles import ThroughputModel
from repro.sim.engine import Simulator
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


# ------------------------------------------------------ event-scoped rows
class TestEventRowStore:
    """The event-scoped ``WarmRowBatch`` (``_event_batch_for``) must reset
    whenever the grid or the tables move, and its delta fast accepts must
    land plans bit-identical to the sequential refill they replace."""

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
        from repro.core.admission import AdmissionController

        reset_cache()
        ctrl = AdmissionController(self.CAPACITY)
        grid1 = SlotGrid(origin=0.0, slot_seconds=1.0, horizon=8)
        ids = ["j0", "j1", "j2", "j3"]
        # Event 1 seeds the warm hints (full scans; no rows yet).
        ctrl.plan_shares(
            self._infos(grid1, ids, 5.0, 4.0), grid1, stop_on_failure=False
        )
        # Event 2 (new origin): the cold batched fill prepares one row per
        # hinted job and stamps the store with this event's key.
        grid2 = SlotGrid(origin=0.5, slot_seconds=1.0, horizon=8)
        ctrl.plan_shares(
            self._infos(grid2, ids, 5.0, 4.0), grid2, stop_on_failure=False
        )
        assert ctrl._event_key is not None and ctrl._event_key[0] == 0.5
        assert len(ctrl._event_rows) == len(ids)
        # Event 3 (origin moved again): the store resets before reuse, so
        # no stale row built against the old weights can ever be read.
        grid3 = SlotGrid(origin=1.5, slot_seconds=1.0, horizon=8)
        ctrl.plan_shares(
            self._infos(grid3, ids, 5.0, 4.0), grid3, stop_on_failure=False
        )
        assert ctrl._event_key[0] == 1.5
        assert len(ctrl._event_rows) == len(ids)

    def test_delta_fast_accepts_are_bit_identical(self):
        from repro.core.admission import AdmissionController

        reset_cache()
        ctrl = AdmissionController(self.CAPACITY)
        grid1 = SlotGrid(origin=0.0, slot_seconds=1.0, horizon=8)
        ids = ["j0", "j1", "j2", "j3"]
        ctrl.plan_shares(
            self._infos(grid1, ids, 5.0, 4.0), grid1, stop_on_failure=False
        )
        grid2 = SlotGrid(origin=0.5, slot_seconds=1.0, horizon=8)
        baseline = self._infos(grid2, ids, 5.0, 4.0)
        ctrl.plan_shares(baseline, grid2, stop_on_failure=False)
        # Arrival trial at the same event: an earlier-deadline candidate
        # perturbs the suffix, forcing refills of the jobs whose rows the
        # baseline fill just solved.
        arrival = replace(
            synthetic_planning_job(
                "new", 1.5, 3.4, grid2, self.CAPACITY, self.THR
            ),
            tables_token=50,
        )
        trial_infos = [arrival] + self._infos(grid2, ids, 5.0, 4.0)
        trial = ctrl.plan_shares(trial_infos, grid2, stop_on_failure=False)
        assert ctrl.delta_fast_accepts > 0, (
            "the trial delta never hit the event-row fast accept; the "
            "scenario no longer exercises the reuse tier"
        )
        # A fresh controller solves the identical trial set cold (no
        # hints, no rows, no retained fill): every plan must match bit
        # for bit.
        cold_ctrl = AdmissionController(self.CAPACITY)
        cold_infos = [
            replace(
                synthetic_planning_job(
                    "new", 1.5, 3.4, grid2, self.CAPACITY, self.THR
                ),
                tables_token=50,
            )
        ] + self._infos(grid2, ids, 5.0, 4.0)
        cold = cold_ctrl.plan_shares(cold_infos, grid2, stop_on_failure=False)
        assert set(trial.plans) == set(cold.plans)
        for job_id, plan in cold.plans.items():
            assert np.array_equal(trial.plans[job_id], plan), job_id
        assert trial.admitted == cold.admitted
        assert trial.degraded == cold.degraded
        assert np.array_equal(trial.ledger.used, cold.ledger.used)


# ------------------------------------------------------ append-only batch
class TestSolvePending:
    """The event-scoped row store appends to one ``WarmRowBatch`` and
    solves it again after each append; a split solve must reproduce the
    all-at-once rows exactly."""

    def add_rows(self, batch, rng, count):
        handles = []
        for _ in range(count):
            length = int(rng.integers(1, 24))
            weights = rng.uniform(0.1, 600.0, size=length)
            handles.append(
                batch.add(weights, float(rng.uniform(0.5, 8.0)), float(rng.uniform(0.0, 8.0)))
            )
        return handles

    def test_incremental_solves_match_one_shot(self):
        """Splitting adds across solves yields the all-at-once rows exactly."""
        rng_a = np.random.default_rng(42)
        rng_b = np.random.default_rng(42)
        incremental = WarmRowBatch()
        oneshot = WarmRowBatch()
        # Mixed chunk sizes straddle SMALL_BATCH on both sides.
        for chunk in (3, 12, 1, 9):
            self.add_rows(incremental, rng_a, chunk)
            incremental.solve_pending()
        self.add_rows(oneshot, rng_b, 3 + 12 + 1 + 9)
        oneshot.solve()
        assert len(incremental) == len(oneshot)
        for handle in range(len(oneshot)):
            assert np.array_equal(
                incremental.hint_row(handle), oneshot.hint_row(handle)
            )
            assert incremental.below_total(handle) == oneshot.below_total(handle)

    def test_solve_is_idempotent(self):
        rng = np.random.default_rng(3)
        batch = WarmRowBatch()
        handles = self.add_rows(batch, rng, 10)
        batch.solve()
        rows = [batch.hint_row(h).copy() for h in handles]
        batch.solve()  # nothing pending: a no-op
        for handle, row in zip(handles, rows):
            assert np.array_equal(batch.hint_row(handle), row)
