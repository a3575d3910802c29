"""Bucketed batch evaluation of warm-hinted fill rows (Algorithms 1 + 2).

The sequential solver touches every candidate job with three small numpy
calls (build the per-slot product, cumulative-sum it, compare) — at 16k
GPUs and hundreds of live jobs the Python dispatch overhead of those calls
dominates the arithmetic.  This module packs the candidates' usable-window
weight rows into padded matrices, bucketed by power-of-two window span, and
evaluates every ``(job, cap, slot)`` contribution in a handful of
vectorized passes: one weight matrix, one broadcast multiply, one
``cumsum(axis=1)`` per bucket instead of three calls per job.

Bit-identity contract (the reason this is safe to use on the decision
path):

- A row only enters the batch when its fill is *unclamped* — the minimum
  available capacity across the job's usable window is at least the
  hinted cap, so every per-slot take is ``min(cap, available) == cap`` and
  the per-slot contribution is the constant ``T[S[cap]]`` times the slot
  weight.  The batch multiplies the identical scalar into the identical
  weights, elementwise, exactly as the sequential verification does.
- ``np.cumsum`` along ``axis=1`` of a C-contiguous matrix performs the
  same strictly sequential additions per row as a 1-D ``cumsum`` of that
  row, and the zero padding beyond each window adds exact ``+0.0`` terms,
  so the first ``w`` entries of a padded row equal the unpadded cumulative
  sum bit for bit.  (``np.sum``'s pairwise reduction would *not* have this
  property; nothing here uses it.)

Whether a batched row may actually be *used* for a given job is decided by
the caller at commit time (deadline order), because availability depends
on the plans committed ahead of it; the rows themselves are pure functions
of the planning views and can be built once up front.
"""

from __future__ import annotations

import numpy as np

from repro.numeric import next_power_of_two

__all__ = ["WarmRowBatch", "bucket_width"]


def bucket_width(length: int) -> int:
    """Smallest power of two >= ``length`` (the padding bucket a window
    length lands in — the interval index over usable-window spans)."""
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    return next_power_of_two(length)


class WarmRowBatch:
    """Cumulative-progress rows for warm-hinted caps, solved in buckets.

    Usage: ``add`` every candidate (its usable-window weights, the constant
    per-slot throughputs of the hinted cap and of the next-lower cap), then
    ``solve`` once, then read back per-candidate results by the handle
    ``add`` returned.  ``hint_row`` is the full sequential cumulative sum
    of the hinted cap's contributions (what the sequential verification
    calls ``progress``); ``below_total`` is the final entry of the
    next-lower cap's row (its feasibility total).
    """

    def __init__(self) -> None:
        self._weights: list[np.ndarray] = []
        self._thr_hint: list[float] = []
        self._thr_below: list[float] = []
        self._rows: list[np.ndarray] = []
        self._below_totals: list[float] = []

    def __len__(self) -> int:
        return len(self._weights)

    def add(self, weights: np.ndarray, thr_hint: float, thr_below: float) -> int:
        """Queue one candidate; returns its handle.

        Args:
            weights: The job's usable-window weight slice (length >= 1).
            thr_hint: ``T[S[cap]]`` of the hinted cap — the constant
                per-slot throughput of an unclamped fill at that cap.
            thr_below: Same for the next-lower cap, or ``0.0`` when the
                hint is already the smallest cap (a zero row's total is
                ``0.0``, which never reaches a positive threshold, so the
                "no smaller cap suffices" check degenerates correctly).
        """
        handle = len(self._weights)
        self._weights.append(weights)
        self._thr_hint.append(thr_hint)
        self._thr_below.append(thr_below)
        return handle

    #: Below this many rows the padded-matrix assembly costs more than the
    #: numpy dispatch it saves; rows are evaluated directly instead (the
    #: same scalar-broadcast multiply and sequential cumsum, so the results
    #: are bit-identical either way — see the module docstring).
    SMALL_BATCH = 8

    def solve(self) -> None:
        """Evaluate every queued candidate, bucket by window span."""
        self.solve_pending()

    def solve_pending(self) -> None:
        """Evaluate only candidates queued since the last solve.

        The batch is append-only: already-solved rows keep their results,
        and each call buckets just the pending tail.  Because the direct
        and bucketed paths are bit-identical (module docstring), splitting
        the same candidates across several solves yields exactly the rows
        a single all-at-once :meth:`solve` would have.
        """
        n = len(self._weights)
        solved = len(self._rows)
        if solved == n:
            return
        pending = range(solved, n)
        self._rows.extend([np.empty(0)] * (n - solved))
        self._below_totals.extend([0.0] * (n - solved))
        if len(pending) < self.SMALL_BATCH:
            for i in pending:
                weights = self._weights[i]
                self._rows[i] = np.cumsum(self._thr_hint[i] * weights)
                self._below_totals[i] = float(
                    np.cumsum(self._thr_below[i] * weights)[-1]
                )
            return
        buckets: dict[int, list[int]] = {}
        for i in pending:
            buckets.setdefault(bucket_width(len(self._weights[i])), []).append(i)
        for width, members in buckets.items():
            lengths = np.array(
                [len(self._weights[i]) for i in members], dtype=np.int64
            )
            padded = np.zeros((len(members), width), dtype=np.float64)
            for row, i in enumerate(members):
                padded[row, : lengths[row]] = self._weights[i]
            thr_hint = np.array(
                [self._thr_hint[i] for i in members], dtype=np.float64
            )
            thr_below = np.array(
                [self._thr_below[i] for i in members], dtype=np.float64
            )
            hint_rows = np.cumsum(thr_hint[:, None] * padded, axis=1)
            below_rows = np.cumsum(thr_below[:, None] * padded, axis=1)
            ends = below_rows[np.arange(len(members)), lengths - 1]
            for row, i in enumerate(members):
                self._rows[i] = hint_rows[row, : lengths[row]]
                self._below_totals[i] = float(ends[row])

    def hint_row(self, handle: int) -> np.ndarray:
        """The hinted cap's sequential cumulative-progress row (length w)."""
        assert handle < len(self._rows), "solve() not called for this handle"
        return self._rows[handle]

    def below_total(self, handle: int) -> float:
        """Feasibility total of the next-lower cap's row."""
        assert handle < len(self._below_totals), "solve() not called for this handle"
        return self._below_totals[handle]
