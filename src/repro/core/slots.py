"""Discretised planning horizon for admission control and allocation.

The planning algorithms reason about the future in fixed-width time slots
anchored at "now".  A deadline rarely falls exactly on a slot boundary, so
each job sees a *weight* per slot: how many seconds of that slot are usable
before its deadline.  This keeps the feasibility arithmetic exact instead of
conservatively rounding deadlines down to whole slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import ConfigurationError
from repro.numeric import EPS

__all__ = ["SlotGrid"]


@dataclass(frozen=True)
class SlotGrid:
    """A horizon of ``horizon`` slots of ``slot_seconds`` starting at ``origin``.

    Attributes:
        origin: Absolute time of the start of slot 0 (simulation seconds).
        slot_seconds: Width of each slot.
        horizon: Number of slots in the planning window.
    """

    origin: float
    slot_seconds: float
    horizon: int

    def __post_init__(self) -> None:
        # Written as ``not (...)`` so NaN, which fails every comparison, is
        # rejected too.
        if not 0 < self.slot_seconds < math.inf:
            raise ConfigurationError(
                f"slot_seconds must be finite and > 0, got {self.slot_seconds}"
            )
        if self.horizon < 1:
            raise ConfigurationError(f"horizon must be >= 1, got {self.horizon}")

    @property
    def end(self) -> float:
        """Absolute time of the end of the last slot."""
        return self.origin + self.horizon * self.slot_seconds

    def slot_start(self, index: int) -> float:
        """Absolute start time of slot ``index``."""
        return self.origin + index * self.slot_seconds

    def slot_of(self, time: float) -> int:
        """Index of the slot containing ``time`` (clamped to the horizon).

        Tolerates ``time`` landing within the shared epsilon *before* the
        origin: grids are anchored at "now" and event times reach here
        through float arithmetic, so an exact ``<`` check would reject the
        very instant the grid was built for.
        """
        if time < self.origin - EPS:
            raise ConfigurationError(
                f"time {time} precedes the grid origin {self.origin}"
            )
        index = int(max(0.0, time - self.origin) // self.slot_seconds)
        return min(index, self.horizon - 1)

    @cached_property
    def _starts(self) -> np.ndarray:
        """Absolute start time of every slot (cached: one grid serves every
        job planned during a scheduling event)."""
        starts = self.origin + np.arange(self.horizon) * self.slot_seconds
        starts.flags.writeable = False
        return starts

    def weights_until(self, deadline: float) -> np.ndarray:
        """Usable seconds per slot for a job due at ``deadline``.

        Slots wholly before the deadline weigh ``slot_seconds``; the slot
        containing the deadline weighs the fraction before it; later slots
        weigh zero.  An infinite deadline yields full weights everywhere.
        """
        if math.isinf(deadline):
            return np.full(self.horizon, self.slot_seconds, dtype=np.float64)
        return np.clip(deadline - self._starts, 0.0, self.slot_seconds)

    def weights_matrix(self, deadlines: np.ndarray) -> np.ndarray:
        """:meth:`weights_until` for a batch of deadlines, one row each.

        Row ``i`` is bit-identical to ``weights_until(deadlines[i])``: the
        clip expression is evaluated elementwise either way, and an
        infinite deadline clips ``inf - start`` to exactly
        ``slot_seconds``, matching the full-weights special case.  The
        matrix is frozen so its rows can be handed out as shared read-only
        views.
        """
        rows = np.clip(
            np.asarray(deadlines, dtype=np.float64)[:, None] - self._starts,
            0.0,
            self.slot_seconds,
        )
        rows.flags.writeable = False
        return rows

    def window_ends(self, deadlines: np.ndarray) -> np.ndarray:
        """Index one past the last nonzero weight, per deadline.

        ``weights_until(d)[t] > 0`` exactly when ``starts[t] < d``, so the
        usable-window length is the number of slot starts strictly before
        the deadline — a ``searchsorted`` over the cached start times
        (infinite deadlines yield the full horizon).  This is the batched
        form of ``PlanningJob.window(0)``.
        """
        return np.searchsorted(
            self._starts, np.asarray(deadlines, dtype=np.float64), side="left"
        )

    @staticmethod
    def for_jobs(
        now: float,
        deadlines: list[float],
        slot_seconds: float,
        *,
        min_horizon: int = 1,
        max_horizon: int = 4096,
    ) -> "SlotGrid":
        """Build a grid anchored at ``now`` covering every finite deadline.

        Best-effort (infinite) deadlines do not extend the horizon; the
        allocator only ever plans their next slot anyway.
        """
        finite = [d for d in deadlines if not math.isinf(d)]
        horizon = min_horizon
        if finite:
            span = max(finite) - now
            needed = max(1, math.ceil(span / slot_seconds))
            horizon = max(min_horizon, needed)
        if horizon > max_horizon:
            raise ConfigurationError(
                f"planning horizon {horizon} exceeds the cap of {max_horizon} "
                f"slots; increase slot_seconds"
            )
        return SlotGrid(origin=now, slot_seconds=slot_seconds, horizon=horizon)

    @staticmethod
    def covering(
        now: float,
        deadlines: list[float],
        slot_seconds: float,
        *,
        max_horizon: int,
    ) -> "SlotGrid":
        """:meth:`for_jobs`, widening the slot instead of failing.

        When the finite deadlines stretch past ``max_horizon`` slots the
        slot becomes ``span / max_horizon`` (coarser planning, same
        guarantees).  That quotient is exact for a power-of-two cap; for
        any other cap it can round low, so ``ceil(span / slot)`` would
        come out one past the cap, and the slot is then nudged up one
        float at a time until the horizon fits.
        """
        finite = [d for d in deadlines if not math.isinf(d)]
        if finite:
            span = max(finite) - now
            if span > slot_seconds * max_horizon:
                slot_seconds = span / max_horizon
            while math.ceil(span / slot_seconds) > max_horizon:
                slot_seconds = math.nextafter(slot_seconds, math.inf)
        return SlotGrid.for_jobs(
            now, deadlines, slot_seconds, max_horizon=max_horizon
        )
