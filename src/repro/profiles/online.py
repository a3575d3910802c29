"""Online throughput profiling (paper Section 5, "Throughput profiling").

Pre-run profiles can be stale or systematically biased (different data
pipeline, thermal throttling, a newer driver).  The paper's answer:
"ElasticFlow profiles its throughput during job execution, and constantly
adjusts the profiled throughput and the scheduling decisions accordingly."

:class:`OnlineThroughputModel` implements that loop for the planner.  It
wraps a prior :class:`~repro.profiles.throughput.ThroughputModel` and
maintains an EWMA multiplicative correction per (model, batch, size) from
runtime observations; planning curves apply the per-size correction where
one exists and the configuration's average correction elsewhere (bias is
typically systematic, so one observed size informs the others).
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.perf import probe
from repro.perf.coherence import coherent, keyed, mutates
from repro.perf.tables import curve_revision, invalidate_planning_tables
from repro.profiles.throughput import Placement, ScalingCurve, ThroughputModel

__all__ = ["OnlineThroughputModel", "ScaledThroughputModel"]


class _CorrectedCurve(ScalingCurve):
    """A scaling curve with live multiplicative corrections applied."""

    def __init__(self, base: ScalingCurve, corrections: dict[int, float]):
        super().__init__(
            base.model,
            base.global_batch,
            base.interconnect,
            power_of_two=base.power_of_two,
        )
        self._base = base
        self._live = corrections  # shared, mutated by the owning model

    def _factor_for(self, size: int) -> float:
        factor = self._live.get(size)
        if factor is not None:
            return factor
        if self._live:
            return sum(self._live.values()) / len(self._live)
        return 1.0

    def throughput(self, n_gpus: int, placement: Placement | None = None) -> float:
        # Delegate to the (possibly already biased) base curve so that
        # corrections compose: correction x prior, never raw physics.
        return self._base.throughput(n_gpus, placement) * self._factor_for(n_gpus)


@coherent(_corrections="planning_tables")
@keyed(_prior_at="curve_revision")
class OnlineThroughputModel:
    """A planning model that learns corrections from runtime observations.

    Plug it into :class:`~repro.core.scheduler.ElasticFlowPolicy` as
    ``planning_throughput`` and feed it the engine's ``observation_hook``;
    execution still follows the ground-truth model, and planning converges
    toward it.

    Args:
        prior: The (possibly biased) pre-run profile.
        alpha: EWMA weight for new observations.
    """

    def __init__(self, prior: ThroughputModel, *, alpha: float = 0.3) -> None:
        if not 0 < alpha <= 1:
            raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
        self.prior = prior
        self.alpha = alpha
        # Per configuration: size -> EWMA of observed/predicted throughput
        # (a size is present once it has been observed).
        self._corrections: dict[tuple[str, int], dict[int, float]] = {}
        self._curves: dict[tuple[str, int], _CorrectedCurve] = {}
        # (model, batch, n_gpus, prior curve revision) -> the prior's
        # (best size, throughput) at that worker count.
        self._prior_at: dict[tuple[str, int, int, int], tuple[int, float]] = {}
        self.observations = 0

    def _corrections_for(self, model_name: str, batch: int) -> dict[int, float]:
        # lint: disable=CC002 -- lazy container init; an empty dict changes no curve answer
        return self._corrections.setdefault((model_name, batch), {})

    def curve(self, model_name: str, global_batch: int) -> ScalingCurve:
        """The live-corrected planning curve for one configuration.

        The curve object is cached per configuration but its answers are
        always live: it reads the shared correction state on every call.
        Returning a stable object is what lets the planning-table memo
        (:mod:`repro.perf.tables`) key by curve identity; :meth:`observe`
        invalidates those tables whenever a correction moves.
        """
        key = (model_name, global_batch)
        curve = self._curves.get(key)
        if curve is None:
            base = self.prior.curve(model_name, global_batch)
            curve = _CorrectedCurve(base, self._corrections_for(model_name, global_batch))
            self._curves[key] = curve
        return curve

    @mutates("_corrections")
    def observe(
        self,
        model_name: str,
        global_batch: int,
        n_gpus: int,
        observed_rate: float,
    ) -> None:
        """Fold one runtime throughput measurement into the corrections.

        Args:
            model_name: Job's model.
            global_batch: Job's global batch size.
            n_gpus: Worker count the rate was measured at.
            observed_rate: Measured iterations/second.

        Raises:
            ConfigurationError: On a non-positive worker count or a rate
                that is not a positive finite number.
        """
        if n_gpus < 1:
            raise ConfigurationError(f"n_gpus must be >= 1, got {n_gpus}")
        if not 0 < observed_rate < math.inf:
            raise ConfigurationError(
                f"observed_rate must be positive and finite, got {observed_rate}"
            )
        base = self.prior.curve(model_name, global_batch)
        key = (model_name, global_batch, n_gpus, curve_revision(base))
        prior_at = self._prior_at.get(key)
        if prior_at is None:
            size = base.best_size(n_gpus)
            prior_at = self._prior_at[key] = (size, base.throughput(size))
        size, predicted = prior_at
        self.observations += 1
        probe.bump("online_observations")
        config = (model_name, global_batch)
        ratio = observed_rate / predicted
        old = self._corrections.get(config, {}).get(size)
        new = ratio if old is None else old + self.alpha * (ratio - old)
        if new == old:
            return
        self._corrections.setdefault(config, {})[size] = new
        probe.bump("online_corrections")
        # A moved correction shifts every size of this configuration's
        # curve (the unobserved sizes borrow the average factor), so any
        # memoized planning tables derived from it are now stale.  The
        # tables are a pure function of the stored factors, so an
        # observation that leaves them unchanged returns above.
        invalidate_planning_tables(self.curve(model_name, global_batch))

    def correction_factor(self, model_name: str, global_batch: int, size: int) -> float:
        """Current correction at one size (1.0 before any observation)."""
        return self._corrections.get((model_name, global_batch), {}).get(size, 1.0)


class ScaledThroughputModel:
    """A uniformly biased profile — for studying stale/optimistic priors.

    ``factor > 1`` overestimates throughput (the dangerous direction: the
    planner promises deadlines the hardware cannot keep).
    """

    def __init__(self, base: ThroughputModel, factor: float) -> None:
        if not 0 < factor < math.inf:
            raise ConfigurationError(
                f"factor must be positive and finite, got {factor}"
            )
        self.base = base
        self.factor = factor
        self._curves: dict[tuple[str, int], _CorrectedCurve] = {}

    def curve(self, model_name: str, global_batch: int) -> ScalingCurve:
        key = (model_name, global_batch)
        curve = self._curves.get(key)
        if curve is None:
            # One shared pseudo-observation biases every size uniformly.
            # The bias never changes, so the cached curve (and any planning
            # tables memoized from it) stays valid for the model's lifetime.
            curve = _CorrectedCurve(
                self.base.curve(model_name, global_batch), {0: self.factor}
            )
            self._curves[key] = curve
        return curve
