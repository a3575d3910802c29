"""Tests for the event engine: active set, heap hygiene, submit order and the stacked advance."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import ClusterSpec
from repro.core.job import Job, JobSpec, JobStatus
from repro.core.scheduler import ElasticFlowPolicy
from repro.errors import SchedulingError, SimulationError
from repro.perf import probe
from repro.sim.engine import Simulator, _ProgressSoA


def _spec(job_id, submit, deadline=None, iterations=200):
    return JobSpec(
        job_id=job_id,
        model_name="resnet50",
        global_batch_size=128,
        max_iterations=iterations,
        submit_time=submit,
        deadline=deadline,
    )


def _sim(specs, **kwargs):
    return Simulator(
        ClusterSpec(n_nodes=2, gpus_per_node=4),
        ElasticFlowPolicy(),
        specs,
        slot_seconds=60.0,
        **kwargs,
    )


class TestActiveSet:
    def test_active_set_tracks_status_transitions(self):
        sim = _sim([_spec("a", 0.0), _spec("b", 5.0)])
        assert sim._active == {}
        sim.run_until(6.0)
        active_ids = set(sim._active)
        assert active_ids == {
            j.job_id for j in sim.jobs.values() if j.is_active
        }
        sim.run()
        assert sim._active == {}
        assert all(
            job.status in (JobStatus.COMPLETED, JobStatus.DROPPED)
            for job in sim.jobs.values()
        )

    def test_dropped_jobs_never_enter_active_set(self):
        # An impossible deadline forces a drop at admission time.
        sim = _sim([_spec("tight", 0.0, deadline=0.5, iterations=10**9)])
        result = sim.run()
        assert result.outcomes[0].status is JobStatus.DROPPED
        assert sim._active == {}


class TestSubmitOrdering:
    def test_late_submission_keeps_specs_sorted(self):
        sim = _sim([_spec("b", 10.0), _spec("a", 0.0)])
        sim.run_until(1.0)
        sim.submit(_spec("c", 5.0))
        keys = [(s.submit_time, s.job_id) for s in sim._specs]
        assert keys == sorted(keys)

    def test_submit_in_the_past_rejected(self):
        sim = _sim([_spec("a", 0.0)])
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.submit(_spec("late", 1.0))

    def test_duplicate_submit_rejected(self):
        sim = _sim([_spec("a", 0.0)])
        with pytest.raises(SimulationError):
            sim.submit(_spec("a", 10.0))


class TestHeapCompaction:
    def test_stale_events_are_compacted(self):
        """A long stream of replans must not grow the heap monotonically:
        after the run the stale counter is bounded by the compaction rule."""
        specs = [_spec(f"j{i}", float(i)) for i in range(40)]
        sim = _sim(specs)
        sim.run()
        assert sim._stale_versioned < 64 or (
            2 * sim._stale_versioned < len(sim._heap)
        )

    def test_compaction_preserves_outcomes(self):
        """Compaction is bookkeeping only — same outcomes as a fresh run
        computed without any intermediate run_until checkpoints."""
        specs = [_spec(f"j{i}", float(i % 7)) for i in range(20)]
        a = _sim(specs).run()
        sim = _sim(specs)
        for t in (2.0, 5.0, 9.0):
            sim.run_until(t)
        b = sim.run()
        digest = lambda r: sorted(
            (o.job_id, o.status.value, o.completion_time) for o in r.outcomes
        )
        assert digest(a) == digest(b)


class TestEfficiencyGate:
    def test_disabling_efficiency_recording_changes_no_outcome(self):
        specs = [_spec(f"j{i}", float(i)) for i in range(12)]
        with_eff = _sim(specs, record_efficiency=True).run()
        without_eff = _sim(
            specs, record_timeline=False, record_efficiency=False
        ).run()
        digest = lambda r: sorted(
            (o.job_id, o.status.value, o.completion_time) for o in r.outcomes
        )
        assert digest(with_eff) == digest(without_eff)


_times = st.floats(min_value=0.0, max_value=3000.0, allow_nan=False)


@st.composite
def _soa_instances(draw):
    """Running rows plus one advance window ``(now - window, now]``."""
    now = draw(_times)
    # Negative windows hit the error path; the rest stay inside [0, now].
    window = draw(st.one_of(st.floats(-5.0, -1e-9), st.floats(0.0, 1.0).map(lambda f: f * now)))
    rows = []
    for i in range(draw(st.integers(1, 6))):
        max_iterations = draw(st.integers(1, 10**5))
        rows.append(
            {
                "job_id": f"j{i}",
                "max_iterations": max_iterations,
                "done": draw(st.floats(0.0, 1.0)) * max_iterations,
                "gsec": draw(_times),
                "gpus": draw(st.sampled_from([1, 2, 4, 8])),
                # Stalls before, across, at both ends of and past the window.
                "stall": draw(
                    st.one_of(
                        st.just(0.0), _times, st.sampled_from([now, now - window])
                    )
                ),
                "rate": draw(st.floats(0.0, 1000.0)),
            }
        )
    return now, window, rows


def _running_job(row) -> Job:
    job = Job(spec=_spec(row["job_id"], 0.0, iterations=row["max_iterations"]))
    job.iterations_done = row["done"]
    job.gpu_seconds = row["gsec"]
    job.n_gpus = row["gpus"]
    job.stall_until = row["stall"]
    return job


def _state(jobs):
    return [(float(job.iterations_done).hex(), float(job.gpu_seconds).hex()) for job in jobs]


class TestProgressSoA:
    @settings(max_examples=300, deadline=None)
    @given(_soa_instances())
    def test_advance_is_bit_identical_to_job_advance(self, instance):
        """The stacked advance equals ``Job.advance`` row by row, stalls
        and the ``max_iterations`` cap included; where any row's stall
        accounting goes negative it raises for the first such row and
        writes no row."""
        now, window, rows = instance
        failing = []
        for row in rows:
            try:
                _running_job(row).advance(window, row["rate"], now)
            except SchedulingError:
                failing.append(row["job_id"])
        jobs = [_running_job(row) for row in rows]
        soa = _ProgressSoA(jobs, [row["rate"] for row in rows], 0)
        if failing:
            before = _state(jobs)
            with pytest.raises(SchedulingError, match=f"job {failing[0]}:"):
                soa.advance(window, now)
            assert _state(jobs) == before
            return
        scalar = [_running_job(row) for row in rows]
        for job, row in zip(scalar, rows):
            job.advance(window, row["rate"], now)
        soa.advance(window, now)
        assert _state(jobs) == _state(scalar)
        assert all(job.iterations_done <= job.spec.max_iterations for job in jobs)

    def test_hook_fires_once_per_running_row(self):
        """An observation hook keeps the stacked advance: it sees every
        running row of every advance, and observing changes no outcome."""
        specs = [_spec(f"j{i}", 10.0 * i, iterations=4000) for i in range(4)]
        calls = []

        def hook(job, n_gpus, rate):
            assert n_gpus == job.n_gpus > 0 and rate > 0
            calls.append(job.job_id)

        probe.reset_counters()
        observed = _sim(specs, observation_hook=hook).run()
        rows = probe.counters().get("sim_vector_rows", 0)
        plain = _sim(specs).run()
        assert rows > 0 and len(calls) == rows
        assert [o.completion_time for o in observed.outcomes] == [
            o.completion_time for o in plain.outcomes
        ]
