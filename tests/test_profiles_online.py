"""Tests for online throughput profiling (paper Section 5)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec
from repro.core import ElasticFlowPolicy, JobSpec
from repro.errors import ConfigurationError
from repro.perf import probe
from repro.perf.tables import invalidate_planning_tables
from repro.profiles import (
    OnlineThroughputModel,
    ScaledThroughputModel,
    ThroughputModel,
)
from repro.profiles.throughput import ScalingCurve
from repro.sim import ElasticExecutor, Simulator

TRUE_MODEL = ThroughputModel()


class _CountingCurve(ScalingCurve):
    """A prior curve that counts how often it is asked for a best size."""

    asked = 0

    def best_size(self, available_gpus: int) -> int:
        self.asked += 1
        return super().best_size(available_gpus)


class _CountingPrior(ThroughputModel):
    def _build_curve(self, model_name: str, global_batch: int) -> ScalingCurve:
        base = super()._build_curve(model_name, global_batch)
        return _CountingCurve(
            base.model,
            global_batch,
            base.interconnect,
            power_of_two=base.power_of_two,
        )


class TestScaledModel:
    def test_factor_applied_uniformly(self):
        biased = ScaledThroughputModel(TRUE_MODEL, 1.5)
        true_curve = TRUE_MODEL.curve("resnet50", 128)
        biased_curve = biased.curve("resnet50", 128)
        for n in (1, 2, 4, 8):
            assert biased_curve.throughput(n) == pytest.approx(
                1.5 * true_curve.throughput(n)
            )

    def test_invalid_factor_rejected(self):
        with pytest.raises(ConfigurationError):
            ScaledThroughputModel(TRUE_MODEL, 0.0)

    @pytest.mark.parametrize("factor", [math.nan, math.inf])
    def test_non_finite_factor_rejected(self, factor):
        with pytest.raises(ConfigurationError):
            ScaledThroughputModel(TRUE_MODEL, factor)


class TestOnlineModel:
    def test_no_observations_reproduces_prior(self):
        online = OnlineThroughputModel(ScaledThroughputModel(TRUE_MODEL, 1.3))
        prior = ScaledThroughputModel(TRUE_MODEL, 1.3).curve("bert", 64)
        corrected = online.curve("bert", 64)
        for n in (1, 4, 8):
            assert corrected.throughput(n) == pytest.approx(prior.throughput(n))

    def test_observation_corrects_the_observed_size(self):
        online = OnlineThroughputModel(
            ScaledThroughputModel(TRUE_MODEL, 1.5), alpha=1.0
        )
        truth = TRUE_MODEL.curve("resnet50", 128).throughput(4)
        online.observe("resnet50", 128, 4, truth)
        assert online.correction_factor("resnet50", 128, 4) == pytest.approx(
            1 / 1.5
        )
        corrected = online.curve("resnet50", 128)
        assert corrected.throughput(4) == pytest.approx(truth)

    def test_unobserved_sizes_borrow_the_average_correction(self):
        online = OnlineThroughputModel(
            ScaledThroughputModel(TRUE_MODEL, 2.0), alpha=1.0
        )
        truth = TRUE_MODEL.curve("resnet50", 128).throughput(2)
        online.observe("resnet50", 128, 2, truth)
        corrected = online.curve("resnet50", 128)
        # Size 8 was never observed but inherits the systematic 0.5x.
        assert corrected.throughput(8) == pytest.approx(
            TRUE_MODEL.curve("resnet50", 128).throughput(8), rel=0.01
        )

    def test_corrections_are_per_configuration(self):
        online = OnlineThroughputModel(
            ScaledThroughputModel(TRUE_MODEL, 1.5), alpha=1.0
        )
        online.observe(
            "resnet50", 128, 2, TRUE_MODEL.curve("resnet50", 128).throughput(2)
        )
        assert online.correction_factor("resnet50", 128, 2) != 1.0
        assert online.correction_factor("bert", 64, 2) == 1.0

    def test_ewma_converges_under_noise(self):
        online = OnlineThroughputModel(
            ScaledThroughputModel(TRUE_MODEL, 1.5), alpha=0.2
        )
        truth = TRUE_MODEL.curve("resnet50", 128).throughput(8)
        rng = np.random.default_rng(0)
        for _ in range(300):
            noisy = truth * float(rng.lognormal(0.0, 0.05))
            online.observe("resnet50", 128, 8, noisy)
        assert online.correction_factor("resnet50", 128, 8) == pytest.approx(
            1 / 1.5, rel=0.05
        )

    def test_invalid_inputs_rejected(self):
        online = OnlineThroughputModel(TRUE_MODEL)
        with pytest.raises(ConfigurationError):
            online.observe("resnet50", 128, 0, 1.0)
        with pytest.raises(ConfigurationError):
            online.observe("resnet50", 128, 2, 0.0)
        with pytest.raises(ConfigurationError):
            OnlineThroughputModel(TRUE_MODEL, alpha=0.0)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_rate_rejected_and_curve_untouched(self, rate):
        online = OnlineThroughputModel(TRUE_MODEL)
        curve = online.curve("resnet50", 128)
        before = [curve.throughput(n) for n in (1, 2, 4, 8)]
        with pytest.raises(ConfigurationError):
            online.observe("resnet50", 128, 2, rate)
        assert [curve.throughput(n) for n in (1, 2, 4, 8)] == before
        assert online.observations == 0

    def test_prior_asked_once_per_configuration_and_revision(self):
        prior = _CountingPrior()
        online = OnlineThroughputModel(prior, alpha=0.5)
        prior_curve = prior.curve("resnet50", 128)
        truth = TRUE_MODEL.curve("resnet50", 128)
        for rate in (1.0, 2.0, 3.0):
            online.observe("resnet50", 128, 4, truth.throughput(4) * rate)
        assert prior_curve.asked == 1
        online.observe("resnet50", 128, 2, truth.throughput(2))
        assert prior_curve.asked == 2
        invalidate_planning_tables(prior_curve)
        online.observe("resnet50", 128, 4, truth.throughput(4))
        assert prior_curve.asked == 3

    def test_counts_observations_and_moved_corrections(self):
        probe.reset_counters()
        online = OnlineThroughputModel(TRUE_MODEL, alpha=0.5)
        rate = TRUE_MODEL.curve("resnet50", 128).throughput(4) * 0.8
        for observed in (rate, rate, rate * 0.5, rate * 0.5):
            online.observe("resnet50", 128, 4, observed)
        counted = probe.counters()
        # The first observation and each moved EWMA step count as
        # corrections; the repeat of the first rate does not.
        assert counted["online_observations"] == 4
        assert counted["online_corrections"] == 3

    @settings(max_examples=30, deadline=None)
    @given(factor=st.floats(min_value=0.5, max_value=2.5))
    def test_one_perfect_observation_recovers_any_bias(self, factor):
        online = OnlineThroughputModel(
            ScaledThroughputModel(TRUE_MODEL, factor), alpha=1.0
        )
        truth = TRUE_MODEL.curve("vgg16", 128).throughput(4)
        online.observe("vgg16", 128, 4, truth)
        assert online.curve("vgg16", 128).throughput(4) == pytest.approx(truth)


class TestClosedLoop:
    """The paper's claim end to end: during-execution profiling repairs a
    stale pre-run profile and restores the deadline guarantee."""

    @pytest.fixture(scope="class")
    def workload(self):
        rng = np.random.default_rng(5)
        one = TRUE_MODEL.curve("resnet50", 128).throughput(1)
        specs = []
        for i in range(40):
            seconds = float(rng.uniform(900, 3600))
            submit = float(rng.uniform(0, 2400))
            lam = float(rng.uniform(0.55, 1.0))
            specs.append(
                JobSpec(
                    job_id=f"j{i}",
                    model_name="resnet50",
                    global_batch_size=128,
                    max_iterations=max(1, int(one * seconds)),
                    submit_time=submit,
                    deadline=submit + lam * seconds,
                )
            )
        return specs

    def run(self, workload, planning, hook=None):
        return Simulator(
            ClusterSpec(2, 8),
            ElasticFlowPolicy(planning_throughput=planning),
            workload,
            throughput=TRUE_MODEL,
            executor=ElasticExecutor.disabled(),
            observation_hook=hook,
        ).run()

    def test_stale_profile_breaks_guarantees(self, workload):
        result = self.run(workload, ScaledThroughputModel(TRUE_MODEL, 1.5))
        missed = sum(1 for o in result.outcomes if o.admitted and not o.met_deadline)
        assert missed > 0  # optimistic promises the hardware cannot keep

    def test_online_correction_restores_guarantees(self, workload):
        online = OnlineThroughputModel(ScaledThroughputModel(TRUE_MODEL, 1.5))

        def hook(job, n_gpus, rate):
            online.observe(
                job.spec.model_name, job.spec.global_batch_size, n_gpus, rate
            )

        corrected = self.run(workload, online, hook)
        truth = self.run(workload, None)
        stale = self.run(workload, ScaledThroughputModel(TRUE_MODEL, 1.5))

        def missed(result):
            return sum(
                1 for o in result.outcomes if o.admitted and not o.met_deadline
            )

        # Jobs admitted before the first observations arrive can still be
        # burned by the optimistic prior; after that the corrections hold,
        # so the damage shrinks to (at most) the warm-up admissions and the
        # overall ratio converges to the true-profile run.
        assert missed(corrected) <= 2
        assert missed(corrected) < missed(stale)
        assert corrected.deadline_satisfactory_ratio == pytest.approx(
            truth.deadline_satisfactory_ratio, abs=0.05
        )
        assert online.observations > 0
