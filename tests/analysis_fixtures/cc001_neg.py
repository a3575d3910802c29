# lint-module: repro.perf.fixture_cc001_neg
"""Negative CC001: the mutator reaches the hook on every non-raising path."""
from repro.perf.coherence import coherent, invalidates, mutates


@coherent(_data="cc001_neg_dep")
class HolderOneNeg:
    def __init__(self):
        self._data = {}

    @invalidates("cc001_neg_dep")
    def _invalidate(self):
        pass

    @mutates("_data")
    def put(self, key, value):
        if key is None:
            raise ValueError("key must not be None")  # raise paths are exempt
        self._data[key] = value
        self._invalidate()


@coherent(_plans="cc001_neg_dep")
class BulkHolderNeg:
    """The retained-ledger pattern: wholesale replacement is one mutation."""

    def __init__(self):
        self._plans = {}

    @invalidates("cc001_neg_dep")
    def _invalidate(self):
        pass

    @mutates("_plans")
    def load(self, plans):
        # Bulk restore: adopt the snapshot wholesale, then invalidate once.
        self._plans = dict(plans)
        self._invalidate()
