"""Tests for the trace data model."""

import math

import pytest

from repro.errors import TraceError
from repro.traces import Trace, TraceJob


def row(job_id="j0", submit=0.0, gpus=2, duration=600.0):
    return TraceJob(job_id=job_id, submit_time=submit, n_gpus=gpus, duration_s=duration)


class TestTraceJob:
    def test_gpu_seconds(self):
        assert row(gpus=4, duration=100.0).gpu_seconds == 400.0

    def test_non_power_of_two_rejected(self):
        with pytest.raises(TraceError):
            row(gpus=3)

    def test_zero_gpus_rejected(self):
        with pytest.raises(TraceError):
            row(gpus=0)

    def test_negative_submit_rejected(self):
        with pytest.raises(TraceError):
            row(submit=-1.0)

    def test_zero_duration_rejected(self):
        with pytest.raises(TraceError):
            row(duration=0.0)

    def test_empty_id_rejected(self):
        with pytest.raises(TraceError):
            row(job_id="")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_submit_rejected(self, value):
        with pytest.raises(TraceError, match="finite"):
            row(submit=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_duration_rejected(self, value):
        with pytest.raises(TraceError, match="finite"):
            row(duration=value)


class TestTrace:
    def test_jobs_sorted_by_submit_time(self):
        trace = Trace(
            name="t",
            cluster_gpus=8,
            jobs=[row("b", submit=100.0), row("a", submit=50.0)],
        )
        assert [j.job_id for j in trace.jobs] == ["a", "b"]

    def test_span_and_totals(self):
        trace = Trace(
            name="t",
            cluster_gpus=8,
            jobs=[row("a", submit=0.0, gpus=2, duration=100.0),
                  row("b", submit=300.0, gpus=4, duration=50.0)],
        )
        assert trace.span_s == 300.0
        assert trace.total_gpu_seconds == 400.0
        assert len(trace) == 2

    def test_load_factor(self):
        trace = Trace(
            name="t",
            cluster_gpus=4,
            jobs=[row("a", submit=0.0, gpus=4, duration=100.0)],
        )
        # 400 GPU-seconds offered over 4 GPUs x 100 s horizon.
        assert trace.load_factor() == pytest.approx(1.0)

    def test_empty_trace_metrics(self):
        trace = Trace(name="t", cluster_gpus=8)
        assert trace.span_s == 0.0
        assert trace.load_factor() == 0.0

    def test_duplicate_ids_rejected(self):
        with pytest.raises(TraceError):
            Trace(name="t", cluster_gpus=8, jobs=[row("a"), row("a")])

    def test_head(self):
        trace = Trace(
            name="t",
            cluster_gpus=8,
            jobs=[row(f"j{i}", submit=float(i)) for i in range(5)],
        )
        head = trace.head(2)
        assert len(head) == 2
        assert head.cluster_gpus == 8
        assert [j.job_id for j in head.jobs] == ["j0", "j1"]

    def test_head_negative_rejected(self):
        with pytest.raises(TraceError):
            Trace(name="t", cluster_gpus=8).head(-1)

    def test_invalid_name_or_cluster(self):
        with pytest.raises(TraceError):
            Trace(name="", cluster_gpus=8)
        with pytest.raises(TraceError):
            Trace(name="t", cluster_gpus=0)
