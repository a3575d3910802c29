"""Tests for trace serialisation (JSON and CSV round trips)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.traces import (
    PRODUCTION_CLUSTERS,
    Trace,
    TraceJob,
    generate_trace,
    read_trace_csv,
    trace_from_json,
    trace_to_json,
    write_trace_csv,
)


@pytest.fixture(scope="module")
def trace() -> Trace:
    return generate_trace(PRODUCTION_CLUSTERS[0], seed=2).head(25)


class TestJsonRoundTrip:
    def test_round_trip_identity(self, trace):
        assert trace_from_json(trace_to_json(trace)) == trace

    def test_invalid_json_rejected(self):
        with pytest.raises(TraceError):
            trace_from_json("not json{")

    def test_non_object_rejected(self):
        with pytest.raises(TraceError):
            trace_from_json("[1, 2, 3]")

    def test_missing_keys_rejected(self):
        with pytest.raises(TraceError, match="missing keys"):
            trace_from_json('{"name": "x"}')

    def test_malformed_row_rejected(self):
        with pytest.raises(TraceError, match="malformed"):
            trace_from_json(
                '{"name": "x", "cluster_gpus": 8, "jobs": [{"job_id": "a"}]}'
            )

    @pytest.mark.parametrize("field", ["submit_time", "duration_s"])
    @pytest.mark.parametrize("token", ["NaN", "Infinity"])
    def test_non_finite_values_rejected(self, field, token):
        # json.loads accepts NaN/Infinity tokens; the schema must not.
        row = {"job_id": "a", "submit_time": 0, "n_gpus": 2, "duration_s": 10}
        body = ", ".join(
            f'"{key}": {token if key == field else json.dumps(value)}'
            for key, value in row.items()
        )
        with pytest.raises(TraceError, match="finite"):
            trace_from_json(
                '{"name": "x", "cluster_gpus": 8, "jobs": [{' + body + "}]}"
            )

    def test_schema_still_enforced(self):
        # A non-power-of-two GPU count fails TraceJob validation.
        with pytest.raises(TraceError):
            trace_from_json(
                '{"name": "x", "cluster_gpus": 8, "jobs": '
                '[{"job_id": "a", "submit_time": 0, "n_gpus": 3, "duration_s": 10}]}'
            )


class TestCsvRoundTrip:
    def test_round_trip_identity(self, trace, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        loaded = read_trace_csv(path)
        assert loaded.name == trace.name
        assert loaded.cluster_gpus == trace.cluster_gpus
        assert loaded.jobs == trace.jobs

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("job_id,submit_time,n_gpus,duration_s\n")
        with pytest.raises(TraceError, match="header"):
            read_trace_csv(path)

    def test_header_without_cluster_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# name=x\njob_id,submit_time,n_gpus,duration_s\n")
        with pytest.raises(TraceError):
            read_trace_csv(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# name=x cluster_gpus=8\n"
            "job_id,submit_time,n_gpus,duration_s\n"
            "a,zero,2,10\n"
        )
        with pytest.raises(TraceError, match="malformed"):
            read_trace_csv(path)

    @pytest.mark.parametrize(
        "line", ["c,nan,1,1.0", "c,inf,1,1.0", "c,1.0,1,nan", "c,1.0,1,inf"]
    )
    def test_non_finite_row_rejected(self, tmp_path, line):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# name=x cluster_gpus=8\n"
            "job_id,submit_time,n_gpus,duration_s\n"
            "a,5.0,1,1.0\n" + line + "\n"
        )
        with pytest.raises(TraceError, match="finite"):
            read_trace_csv(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(TraceError):
            read_trace_csv(tmp_path / "nope.csv")


class TestPropertyRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(
        n_jobs=st.integers(min_value=0, max_value=10),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_json_round_trip_random_traces(self, n_jobs, seed, tmp_path_factory):
        import numpy as np

        rng = np.random.default_rng(seed)
        jobs = [
            TraceJob(
                job_id=f"j{i}",
                submit_time=float(rng.uniform(0, 1e5)),
                n_gpus=int(2 ** rng.integers(0, 6)),
                duration_s=float(rng.uniform(1, 1e5)),
            )
            for i in range(n_jobs)
        ]
        trace = Trace(name="random", cluster_gpus=64, jobs=jobs)
        assert trace_from_json(trace_to_json(trace)) == trace
