"""Performance infrastructure for the scheduling hot loop.

- :mod:`repro.perf.tables` — memoized per-curve planning tables with
  explicit invalidation (consumed by ``repro.core.admission``).
- :mod:`repro.perf.coherence` — the declaration vocabulary
  (``@coherent``/``@keyed``/``@mutates``/``@invalidates``) connecting
  cache-dependent state to its invalidation hooks; checked statically by
  ``python -m repro.analysis`` (rules CC001–CC005).
- :mod:`repro.perf.probe` — dormant-by-default per-event phase timing
  (planning views / Algorithm 1 / Algorithm 2 / engine bookkeeping);
  the bench harness installs a recorder and exports the phase split.
- :mod:`repro.perf.bench` — the benchmark harness behind
  ``python -m repro.perf``; records the perf trajectory in
  ``BENCH_core.json``.

Only the table machinery is re-exported here: the bench harness pulls in
the whole simulator stack and is imported lazily by ``__main__`` so that
``repro.core`` can depend on this package without a cycle.
"""

from repro.perf.coherence import (
    INVALIDATION_REGISTRY,
    coherence_report,
    coherent,
    invalidates,
    keyed,
    mutates,
)
from repro.perf.tables import (
    PlanningTables,
    cache_enabled,
    cache_stats,
    compute_planning_tables,
    invalidate_planning_tables,
    planning_cache_disabled,
    planning_tables_for,
    reset_cache,
)

__all__ = [
    "INVALIDATION_REGISTRY",
    "PlanningTables",
    "cache_enabled",
    "coherence_report",
    "coherent",
    "invalidates",
    "keyed",
    "mutates",
    "cache_stats",
    "compute_planning_tables",
    "invalidate_planning_tables",
    "planning_cache_disabled",
    "planning_tables_for",
    "reset_cache",
]
