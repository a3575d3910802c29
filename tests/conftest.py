"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.core.admission import PlanningJob
from repro.core.slots import SlotGrid


def synthetic_planning_job(
    job_id: str,
    remaining: float,
    deadline: float,
    grid: SlotGrid,
    capacity: int,
    throughput_by_size: dict[int, float],
    *,
    best_effort: bool = False,
) -> PlanningJob:
    """Build a PlanningJob from an explicit size -> iterations/sec mapping.

    Mirrors the tables :func:`repro.core.admission.planning_job` derives
    from a scaling curve, but lets tests use the paper's toy curves (e.g.
    Fig 3's "1 unit at 1 worker, 1.5 units at 2 workers") directly.
    """
    sizes = sorted(throughput_by_size)
    throughput_table = np.zeros(capacity + 1, dtype=np.float64)
    size_table = np.zeros(capacity + 1, dtype=np.int64)
    best_size, best_thr = 0, 0.0
    for x in range(1, capacity + 1):
        if x in throughput_by_size and throughput_by_size[x] > best_thr:
            best_size, best_thr = x, throughput_by_size[x]
        throughput_table[x] = best_thr
        size_table[x] = best_size
    return PlanningJob(
        job_id=job_id,
        remaining_iterations=remaining,
        deadline=deadline,
        weights=grid.weights_until(deadline),
        throughput_table=throughput_table,
        size_table=size_table,
        sizes=sizes,
        best_effort=best_effort,
    )


@pytest.fixture
def unit_grid() -> SlotGrid:
    """Five one-second slots starting at t=0 (for the paper's toy examples)."""
    return SlotGrid(origin=0.0, slot_seconds=1.0, horizon=5)


class NumpyDraws:
    """Primitive draws from a seeded numpy generator."""

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)

    def int(self, lo: int, hi: int) -> int:
        return int(self._rng.integers(lo, hi + 1))

    def float(self, lo: float, hi: float) -> float:
        return float(self._rng.uniform(lo, hi))


class HypothesisDraws:
    """The same primitive draws through hypothesis (so failures shrink)."""

    def __init__(self, draw) -> None:
        self._draw = draw

    def int(self, lo: int, hi: int) -> int:
        return self._draw(st.integers(min_value=lo, max_value=hi))

    def float(self, lo: float, hi: float) -> float:
        return self._draw(
            st.floats(min_value=lo, max_value=hi, allow_nan=False)
        )
