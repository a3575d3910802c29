"""Per-slot allocation plans and the shared GPU occupancy ledger.

A *plan* is simply a numpy integer vector: ``plan[t]`` GPUs in slot ``t`` of
the current :class:`~repro.core.slots.SlotGrid`.  The :class:`Ledger` tracks
the column sums across all planned jobs so admission control and allocation
can ask "how many GPUs are still unclaimed in slot t?" in O(1) vector ops.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, SchedulingError
from repro.perf.coherence import coherent, invalidates, mutates

__all__ = ["Ledger", "zero_plan"]


def zero_plan(horizon: int) -> np.ndarray:
    """An empty allocation plan of ``horizon`` slots."""
    if horizon < 1:
        raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
    return np.zeros(horizon, dtype=np.int64)


@coherent(_used="ledger_version", _plans="ledger_version")
class Ledger:
    """GPU occupancy bookkeeping across all planned jobs.

    ``_used`` and ``_plans`` are coherent state: ``version`` (bumped by
    :meth:`_bump_version`) is what the availability cache and admission
    staleness checks key on, so every mutation must go through a declared
    mutator that reaches the bump (statically enforced — rules CC001/CC002).

    Args:
        capacity: Total GPUs in the cluster.
        horizon: Number of slots in the planning window.
    """

    def __init__(self, capacity: int, horizon: int) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        if horizon < 1:
            raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
        self.capacity = capacity
        self.horizon = horizon
        self.version = 0  # bumped on every mutation; used for staleness checks
        self._used = np.zeros(horizon, dtype=np.int64)
        self._plans: dict[str, np.ndarray] = {}
        self._available_cache: np.ndarray | None = None
        self._available_version = -1

    # ----------------------------------------------------------- inspection
    @property
    def used(self) -> np.ndarray:
        """GPUs claimed per slot (read-only view)."""
        view = self._used.view()
        view.flags.writeable = False
        return view

    def available(self) -> np.ndarray:
        """GPUs still unclaimed per slot (read-only; cached per version)."""
        if self._available_version != self.version:
            cache = self.capacity - self._used
            cache.flags.writeable = False
            self._available_cache = cache
            self._available_version = self.version
        return self._available_cache

    def available_at(self, slot: int) -> int:
        """GPUs still unclaimed in one slot (no array allocation)."""
        return self.capacity - int(self._used[slot])

    def plan_of(self, job_id: str) -> np.ndarray:
        """The registered plan of a job (copy)."""
        try:
            return self._plans[job_id].copy()
        except KeyError:
            raise SchedulingError(f"no plan registered for job {job_id!r}") from None

    def plan_view(self, job_id: str) -> np.ndarray:
        """The registered plan of a job (read-only, no copy).

        Stored plans are frozen at registration time, so this hands out
        the stored array itself — no per-call view construction.
        """
        try:
            return self._plans[job_id]
        except KeyError:
            raise SchedulingError(f"no plan registered for job {job_id!r}") from None

    def has_plan(self, job_id: str) -> bool:
        return job_id in self._plans

    @property
    def job_ids(self) -> list[str]:
        return sorted(self._plans)

    # ------------------------------------------------------------- mutation
    @invalidates("ledger_version")
    def _bump_version(self) -> None:
        """Mark every version-keyed derivation of the ledger stale."""
        self.version += 1

    @mutates("_used", "_plans")
    def set_plan(self, job_id: str, plan: np.ndarray, *, trusted: bool = False) -> None:
        """Register or replace a job's plan, enforcing capacity.

        ``trusted=True`` skips the shape/dtype/capacity validation — the
        planners use it for plans that progressive filling already bounded
        by the available capacity, which removes three O(horizon) passes
        from the hottest loop in Algorithm 2.  A trusted plan is also
        adopted without a defensive copy and frozen in place (untrusted
        plans are copied first, so the caller's array stays writable);
        freezing enforces the no-mutation contract and lets
        :meth:`plan_view` return stored arrays directly.  External callers
        should leave ``trusted`` off.
        """
        if not trusted:
            plan = self._validated(plan)
        previous = self._plans.get(job_id)
        trial = self._used + plan
        if previous is not None:
            trial -= previous
        if not trusted and np.any(trial > self.capacity):
            slot = int(np.argmax(trial > self.capacity))
            raise SchedulingError(
                f"plan for {job_id!r} overflows capacity at slot {slot}: "
                f"{int(trial[slot])} > {self.capacity}"
            )
        self._used = trial
        stored = plan if trusted else plan.copy()
        stored.flags.writeable = False
        self._plans[job_id] = stored
        self._bump_version()

    @mutates("_used", "_plans")
    def load_plans(self, plans: dict[str, np.ndarray], used: np.ndarray) -> None:
        """Wholesale-replace every plan from a pre-validated snapshot.

        The bulk load behind the admission controller's commit walk:
        ``plans`` must be exactly the per-job plans whose column sum is
        ``used`` (the caller owns that invariant — the walk sums the pair
        from plans progressive filling already bounded by capacity).
        Adopted arrays are frozen in place, like
        ``set_plan(trusted=True)``, so :meth:`plan_view` can keep handing
        out stored arrays; ``used`` is adopted without a copy.
        """
        for plan in plans.values():
            plan.flags.writeable = False
        self._plans = dict(plans)
        self._used = used
        self._bump_version()

    @mutates("_used", "_plans")
    def remove_plan(self, job_id: str) -> None:
        """Drop a job's plan, releasing its claimed GPUs."""
        plan = self._plans.pop(job_id, None)
        if plan is None:
            raise SchedulingError(f"no plan registered for job {job_id!r}")
        # Rebind rather than subtract in place, like every mutator: views
        # handed out by ``used`` must keep the values they were read with.
        self._used = self._used - plan
        self._bump_version()

    @mutates("_used", "_plans")
    def clear(self) -> None:
        """Forget every plan."""
        self._plans.clear()
        self._used = np.zeros(self.horizon, dtype=np.int64)
        self._bump_version()

    # -------------------------------------------------------------- helpers
    def _validated(self, plan: np.ndarray) -> np.ndarray:
        plan = np.asarray(plan)
        if plan.shape != (self.horizon,):
            raise SchedulingError(
                f"plan has shape {plan.shape}, expected ({self.horizon},)"
            )
        if not np.issubdtype(plan.dtype, np.integer):
            raise SchedulingError(f"plan dtype must be integer, got {plan.dtype}")
        if np.any(plan < 0):
            raise SchedulingError("plan contains negative allocations")
        return plan.astype(np.int64, copy=False)
