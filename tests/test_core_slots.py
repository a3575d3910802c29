"""Tests for the slot grid time discretisation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SlotGrid
from repro.errors import ConfigurationError


class TestSlotGrid:
    def test_basic_geometry(self):
        grid = SlotGrid(origin=100.0, slot_seconds=10.0, horizon=5)
        assert grid.end == 150.0
        assert grid.slot_start(0) == 100.0
        assert grid.slot_start(3) == 130.0

    def test_slot_of(self):
        grid = SlotGrid(origin=0.0, slot_seconds=10.0, horizon=5)
        assert grid.slot_of(0.0) == 0
        assert grid.slot_of(9.99) == 0
        assert grid.slot_of(10.0) == 1
        assert grid.slot_of(1e9) == 4  # clamped

    def test_slot_of_before_origin_rejected(self):
        grid = SlotGrid(origin=10.0, slot_seconds=1.0, horizon=2)
        with pytest.raises(ConfigurationError):
            grid.slot_of(9.0)

    def test_invalid_construction(self):
        for slot_seconds in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ConfigurationError):
                SlotGrid(origin=0.0, slot_seconds=slot_seconds, horizon=5)
        with pytest.raises(ConfigurationError):
            SlotGrid(origin=0.0, slot_seconds=1.0, horizon=0)


class TestWeights:
    def test_deadline_on_boundary(self):
        grid = SlotGrid(origin=0.0, slot_seconds=10.0, horizon=4)
        weights = grid.weights_until(20.0)
        assert weights.tolist() == [10.0, 10.0, 0.0, 0.0]

    def test_deadline_mid_slot(self):
        grid = SlotGrid(origin=0.0, slot_seconds=10.0, horizon=4)
        weights = grid.weights_until(25.0)
        assert weights.tolist() == [10.0, 10.0, 5.0, 0.0]

    def test_infinite_deadline_full_weights(self):
        grid = SlotGrid(origin=0.0, slot_seconds=10.0, horizon=3)
        assert grid.weights_until(math.inf).tolist() == [10.0, 10.0, 10.0]

    def test_past_deadline_all_zero(self):
        grid = SlotGrid(origin=100.0, slot_seconds=10.0, horizon=3)
        assert grid.weights_until(50.0).tolist() == [0.0, 0.0, 0.0]

    @settings(max_examples=100)
    @given(
        deadline=st.floats(min_value=0.0, max_value=1000.0),
        slot=st.floats(min_value=0.5, max_value=60.0),
    )
    def test_total_weight_equals_usable_time(self, deadline, slot):
        grid = SlotGrid(origin=0.0, slot_seconds=slot, horizon=64)
        usable = min(max(deadline, 0.0), grid.end)
        assert float(np.sum(grid.weights_until(deadline))) == pytest.approx(usable)


class TestForJobs:
    def test_covers_latest_deadline(self):
        grid = SlotGrid.for_jobs(0.0, [100.0, 250.0], 60.0)
        assert grid.end >= 250.0
        assert grid.horizon == 5

    def test_ignores_infinite_deadlines(self):
        grid = SlotGrid.for_jobs(0.0, [math.inf], 60.0)
        assert grid.horizon == 1

    def test_min_horizon_respected(self):
        grid = SlotGrid.for_jobs(0.0, [], 60.0, min_horizon=4)
        assert grid.horizon == 4

    def test_max_horizon_enforced(self):
        with pytest.raises(ConfigurationError):
            SlotGrid.for_jobs(0.0, [1e9], 1.0, max_horizon=100)

    def test_anchored_at_now(self):
        grid = SlotGrid.for_jobs(42.0, [100.0], 10.0)
        assert grid.origin == 42.0
        assert grid.horizon == 6  # ceil(58 / 10)


class TestCovering:
    def test_keeps_the_slot_when_the_horizon_fits(self):
        grid = SlotGrid.covering(0.0, [250.0, math.inf], 60.0, max_horizon=8)
        assert grid.slot_seconds == 60.0
        assert grid.horizon == 5

    def test_power_of_two_cap_widens_to_the_plain_quotient(self):
        span = 51_839_182.607592285
        grid = SlotGrid.covering(0.0, [span], 600.0, max_horizon=2048)
        assert grid.slot_seconds == span / 2048
        assert grid.horizon == 2048

    @settings(max_examples=200)
    @given(
        span=st.floats(min_value=1.0, max_value=1e9),
        cap=st.integers(min_value=1, max_value=5000),
        slot=st.floats(min_value=1.0, max_value=3600.0),
    )
    def test_widened_grid_fits_the_cap_and_covers_the_deadline(self, span, cap, slot):
        grid = SlotGrid.covering(10.0, [10.0 + span], slot, max_horizon=cap)
        assert grid.horizon <= cap
        assert grid.slot_seconds >= slot
        assert grid.end >= 10.0 + span - 1e-6 * span
