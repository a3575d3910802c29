"""Tests for the memoized planning tables and their invalidation hooks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf import probe
from repro.perf import tables as tables_mod
from repro.perf.tables import (
    cache_enabled,
    compute_planning_tables,
    curve_revision,
    invalidate_planning_tables,
    planning_cache_disabled,
    planning_tables_for,
    reset_cache,
    tables_global_revision,
)
from repro.profiles import ThroughputModel
from repro.profiles.online import OnlineThroughputModel


@pytest.fixture(autouse=True)
def _fresh_cache():
    reset_cache()
    probe.reset_counters()
    yield
    reset_cache()


def _count(name):
    """One planning-table probe counter (absent counters read zero)."""
    return probe.counters().get(f"tables_{name}", 0)


def _curve(model="resnet50", batch=128):
    return ThroughputModel().curve(model, batch)


class TestComputeTables:
    def test_matches_inline_computation(self):
        """The tables must equal the historical per-call computation."""
        curve = _curve()
        capacity = 16
        built = compute_planning_tables(curve, capacity)
        sizes = list(curve.allowed_sizes(capacity))
        assert list(built.sizes) == sizes
        best_size, best_thr = 0, 0.0
        for x in range(1, capacity + 1):
            if x in sizes:
                thr = curve.throughput(x)
                if thr > best_thr:
                    best_size, best_thr = x, thr
            assert built.throughput_table[x] == best_thr
            assert built.size_table[x] == best_size
        assert built.throughput_table[0] == 0.0
        assert built.size_table[0] == 0

    def test_tables_are_read_only(self):
        built = compute_planning_tables(_curve(), 8)
        with pytest.raises(ValueError):
            built.throughput_table[1] = 99.0
        with pytest.raises(ValueError):
            built.size_table[1] = 99

    def test_tokens_are_unique_per_build(self):
        curve = _curve()
        a = compute_planning_tables(curve, 8)
        b = compute_planning_tables(curve, 8)
        assert a.token != b.token


class TestMemoisation:
    def test_second_lookup_hits(self):
        curve = _curve()
        first = planning_tables_for(curve, 8)
        second = planning_tables_for(curve, 8)
        assert first is second
        assert _count("misses") == 1
        assert _count("hits") == 1

    def test_distinct_capacity_is_a_distinct_entry(self):
        curve = _curve()
        a = planning_tables_for(curve, 8)
        b = planning_tables_for(curve, 16)
        assert a is not b
        assert len(a.throughput_table) == 9
        assert len(b.throughput_table) == 17

    def test_distinct_curves_do_not_collide(self):
        a = planning_tables_for(_curve("resnet50"), 8)
        b = planning_tables_for(_curve("vgg16"), 8)
        assert a.token != b.token

    def test_escape_hatch_bypasses_and_does_not_populate(self):
        curve = _curve()
        with planning_cache_disabled():
            assert not cache_enabled()
            a = planning_tables_for(curve, 8)
            b = planning_tables_for(curve, 8)
        assert a is not b  # fresh build each time
        assert _count("bypasses") == 2
        assert cache_enabled()
        # The bypassed builds must not have seeded the store.
        planning_tables_for(curve, 8)
        assert _count("misses") == 1


class TestInvalidation:
    def test_invalidate_forces_rebuild_with_new_token(self):
        curve = _curve()
        before = planning_tables_for(curve, 8)
        invalidate_planning_tables(curve)
        after = planning_tables_for(curve, 8)
        assert after is not before
        assert after.token != before.token
        assert _count("invalidations") == 1

    def test_curve_revision_bumps_on_every_invalidation(self):
        curve = _curve()
        assert curve_revision(curve) == 0
        invalidate_planning_tables(curve)
        assert curve_revision(curve) == 1
        invalidate_planning_tables(curve)  # even with nothing cached
        assert curve_revision(curve) == 2

    def test_reset_cache_keeps_revisions_monotone(self):
        """reset_cache forgets tables but must never rewind revisions —
        downstream memo keys rely on the counter being monotone."""
        curve = _curve()
        invalidate_planning_tables(curve)
        revision = curve_revision(curve)
        reset_cache()
        assert curve_revision(curve) == revision

    def test_online_observation_invalidates_dependent_tables(self):
        """An OnlineThroughputModel correction must flow through to the
        planning tables: same curve object, fresh table contents."""
        online = OnlineThroughputModel(ThroughputModel(), alpha=1.0)
        curve = online.curve("resnet50", 128)
        before = planning_tables_for(curve, 8)
        revision_before = curve_revision(curve)
        measured = curve.throughput(1) * 0.5
        online.observe("resnet50", 128, n_gpus=1, observed_rate=measured)
        assert curve_revision(curve) > revision_before
        after = planning_tables_for(curve, 8)
        assert after.token != before.token
        assert not np.array_equal(after.throughput_table, before.throughput_table)

    def test_observation_on_unseen_curve_is_harmless(self):
        online = OnlineThroughputModel(ThroughputModel(), alpha=0.5)
        online.observe("vgg16", 64, n_gpus=2, observed_rate=1.0)
        assert _count("invalidations") == 0


class TestOnlineInvalidation:
    """``observe`` invalidates exactly when a stored correction moves."""

    def _primed(self):
        online = OnlineThroughputModel(ThroughputModel(), alpha=0.3)
        curve = online.curve("resnet50", 128)
        rate = curve.throughput(4) * 0.8
        online.observe("resnet50", 128, n_gpus=4, observed_rate=rate)
        return online, curve, rate

    def test_repeated_identical_observation_keeps_tables(self):
        online, curve, rate = self._primed()
        before = planning_tables_for(curve, 8)
        revision, global_revision = curve_revision(curve), tables_global_revision()
        for _ in range(3):
            online.observe("resnet50", 128, n_gpus=4, observed_rate=rate)
        assert planning_tables_for(curve, 8).token == before.token
        assert curve_revision(curve) == revision
        assert tables_global_revision() == global_revision
        assert _count("invalidations") == 0
        assert online.observations == 4

    def test_first_observation_at_a_new_size_invalidates(self):
        online, curve, rate = self._primed()
        before = planning_tables_for(curve, 8)
        online.observe("resnet50", 128, n_gpus=2, observed_rate=rate / 2)
        assert planning_tables_for(curve, 8).token != before.token
        assert _count("invalidations") == 1

    def test_observation_moving_the_ewma_invalidates(self):
        online, curve, rate = self._primed()
        before = planning_tables_for(curve, 8)
        revision = curve_revision(curve)
        online.observe("resnet50", 128, n_gpus=4, observed_rate=rate * 0.9)
        assert curve_revision(curve) == revision + 1
        assert planning_tables_for(curve, 8).token != before.token
        assert _count("invalidations") == 1

    @settings(max_examples=40, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from([1, 2, 3, 4, 8]),
                st.sampled_from([0.5, 0.8, 1.0, 1.25]),
                st.one_of(st.just(1.0), st.floats(0.9, 1.1)),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_memoized_tables_track_every_observation(self, steps):
        online = OnlineThroughputModel(ThroughputModel(), alpha=0.3)
        curve = online.curve("resnet50", 128)
        truth = ThroughputModel().curve("resnet50", 128)
        for n_gpus, bias, noise in steps:
            rate = truth.throughput(n_gpus) * bias * noise
            online.observe("resnet50", 128, n_gpus=n_gpus, observed_rate=rate)
            for capacity in (4, 8):
                cached = planning_tables_for(curve, capacity)
                fresh = compute_planning_tables(curve, capacity)
                assert np.array_equal(cached.throughput_table, fresh.throughput_table)
                assert np.array_equal(cached.size_table, fresh.size_table)


class TestModuleHygiene:
    def test_public_surface(self):
        for name in tables_mod.__all__:
            assert hasattr(tables_mod, name)
        # Lookup counts live in the probe registry, not a second store.
        assert not hasattr(tables_mod, "cache_stats")
