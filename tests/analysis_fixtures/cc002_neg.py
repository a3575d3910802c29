# lint-module: repro.perf.fixture_cc002_neg
"""Negative CC002: construction and declared mutators may touch the field."""
from repro.perf.coherence import coherent, invalidates, mutates


@coherent(_data="cc002_neg_dep")
class HolderTwoNeg:
    def __init__(self):
        self._data = {}

    @invalidates("cc002_neg_dep")
    def _invalidate(self):
        pass

    @mutates("_data")
    def put(self, key, value):
        self._data[key] = value
        self._invalidate()
