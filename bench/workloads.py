"""The four benchmark workloads and the seeded inputs they replay.

Every workload replays synthetic Philly-style traces through the public
:class:`~repro.sim.engine.Simulator` / ``SchedulerPolicy`` API on 8-GPU
nodes with 600 s planning slots, overheads charged and no timeline.  The
replay runs in virtual time, so there is no open or closed loop on the
wall clock: what is measured is how fast the scheduler and the engine
work through a fixed stream of arrivals.

A benchmark run first replays the workload's *quality set*, traces
0..Q-1 of a fixed stream that no ``--seed`` reaches, and then traces 0, 1,
2, ... of its seed.  Every run of every seed replays the same quality set,
so decision quality is measured on identical inputs whatever the seed.
Trace ``k`` of seed ``s`` draws everything (sizes, durations, arrivals,
models, deadlines and outages) from one generator seeded with ``[s, k]``.
``philly``, ``adaptive`` and ``baselines`` replay the identical trace for
the same ``(s, k)``; they differ only in the policy and what surrounds it.

Why each workload exists (the layer it stresses, and the one it bypasses):

- ``philly``: the paper's production-trace regime.  Many small jobs churn,
  so Algorithm 1 admission (two ``plan_shares`` per arrival) is heavy and
  placement is non-trivial.
- ``large-model``: a wide-job size mix (mean request ~24 GPUs) at load 3
  on eight GPUs per job, so its Algorithm 2 and ``plan_shares`` calls
  carry 1.4-1.5 times ``philly``'s active set, while placement is nearly
  free (wide jobs take whole aligned blocks).  Its Algorithm 1 /
  Algorithm 2 time split is close to ``philly``'s.
- ``adaptive``: ``philly`` plus node outages, a failure reserve and online
  throughput profiling from a 20 %-optimistic prior.  Every observation
  invalidates planning tables and every outage switches the admission
  controller, so a cache that pays on ``philly`` but costs on invalidation
  shows up here.
- ``baselines``: the ``philly`` trace under EDF, Gandiva, Tiresias and
  Themis.  It bypasses ``repro.core`` entirely, so an Algorithm 1/2 change
  must leave it unchanged while an engine or placement change moves it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from repro.baselines.registry import make_policy
from repro.cluster.topology import ClusterSpec
from repro.core.job import JobSpec
from repro.core.scheduler import ElasticFlowPolicy
from repro.profiles.online import OnlineThroughputModel, ScaledThroughputModel
from repro.profiles.throughput import ThroughputModel
from repro.sim.engine import Simulator
from repro.sim.executor import ElasticExecutor
from repro.sim.failures import FailureSchedule, NodeFailureModel
from repro.traces.synthetic import ClusterTraceConfig, generate_trace
from repro.traces.schema import Trace
from repro.traces.workload import build_jobs

__all__ = [
    "WORKLOADS",
    "Workload",
    "Inputs",
    "workload",
    "make_trace",
    "make_inputs",
    "simulators",
]

#: Requested-size mix of a large-model cluster: far fewer, far wider jobs
#: per GPU than the Philly mix (the mid/xl mix of ``repro.perf.bench``).
HEAVY_GPU_WEIGHTS = {4: 0.20, 8: 0.25, 16: 0.25, 32: 0.15, 64: 0.10, 128: 0.05}

#: ElasticFlow's protection knobs, the ``ExperimentConfig`` defaults every
#: figure uses (work margin, deadline padding, rescale hysteresis).
PROTECTION = {"safety_margin": 0.03, "deadline_padding_s": 60.0, "stability_threshold": 0.3}

SLOT_SECONDS = 600.0
GPUS_PER_NODE = 8
BASELINE_POLICIES = ("edf", "gandiva", "tiresias", "themis")
SMOKE_JOBS = 100
#: Entropy of the quality-set stream.  Its traces use a spawn key, which a
#: seed passed as ``[seed, index]`` never produces, so no seed repeats them.
QUALITY_ENTROPY = 20_230_325


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: trace shape plus the policies replaying it.

    Attributes:
        name: Workload name as passed to ``--workload``.
        jobs: Jobs per trace.
        gpus: Cluster size (a power of two).
        quality_traces: Size of the quality set, which every run replays
            and checks first however long it takes; decision quality and
            peak memory are measured on exactly these traces, so they
            depend neither on replay speed nor on the seed.
        policies: Policies that replay each trace, one after another.
        gpu_weights: Requested-size mix; ``None`` is the Philly default.
        load: Offered load: requested GPU-seconds over cluster capacity.
        adaptive: Add outages, a failure reserve and online profiling.
    """

    name: str
    jobs: int
    gpus: int
    quality_traces: int
    policies: tuple[str, ...] = ("elasticflow",)
    gpu_weights: dict[int, float] | None = None
    load: float = 1.1
    adaptive: bool = False

    def smoke(self) -> "Workload":
        """The 100-job variant the tests replay, same jobs-to-GPUs ratio."""
        return replace(
            self, jobs=SMOKE_JOBS, gpus=128 * max(1, self.gpus // self.jobs), quality_traces=1
        )


# Sizes are a quarter of the paper-regime traces (1000 jobs on 1024 GPUs,
# 2000 on 4096) so that one replay takes 0.5-2.5 s on one core and a
# fixed-length run holds a dozen or more: a single trace's cost varies by
# about 20 %, so every timing pools many traces.  Each quality set takes
# about half a run, ``large-model``'s about two thirds: its per-trace
# median Algorithm 2 latency varies by 25 % either way, which with a
# six-trace quality set spread the run's median over ten seeds by 9-11 %.
# ``large-model`` runs at load 3 because at a quarter size and load 1.1 its
# active set is no larger than ``philly``'s (18 versus 19 jobs per
# Algorithm 2 call on the same seed); at load 3 it is 38 against
# ``philly``'s 28 on the quality sets.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("philly", jobs=250, gpus=256, quality_traces=8),
        Workload(
            "large-model",
            jobs=256,
            gpus=2048,
            quality_traces=9,
            gpu_weights=HEAVY_GPU_WEIGHTS,
            load=3.0,
        ),
        Workload("adaptive", jobs=250, gpus=256, quality_traces=6, adaptive=True),
        Workload(
            "baselines", jobs=250, gpus=256, quality_traces=12, policies=BASELINE_POLICIES
        ),
    )
}


def workload(name: str, *, smoke: bool = False) -> Workload:
    """Look up a workload by name, optionally its smoke variant."""
    found = WORKLOADS[name]
    return found.smoke() if smoke else found


class Inputs(NamedTuple):
    """Everything one replay hands the program, generated from the seed."""

    cluster: ClusterSpec
    specs: list[JobSpec]
    truth: ThroughputModel
    failures: FailureSchedule | None


def make_trace(
    w: Workload, seed: int | None, index: int
) -> tuple[Trace, np.random.Generator]:
    """Trace ``index`` of ``seed`` (``None``: of the quality set), plus the
    generator the rest of its inputs draw from."""
    if seed is None:
        rng = np.random.default_rng(np.random.SeedSequence(QUALITY_ENTROPY, spawn_key=(index,)))
    else:
        rng = np.random.default_rng([seed, index])
    config = ClusterTraceConfig(
        "bench",
        w.gpus,
        w.jobs,
        target_load=w.load,
        duration_median_s=3000.0,
        duration_sigma=1.2,
        **({"gpu_weights": w.gpu_weights} if w.gpu_weights else {}),
    )
    return generate_trace(config, rng=rng), rng


def make_inputs(w: Workload, trace: Trace, rng: np.random.Generator) -> Inputs:
    """Job specs (and, for ``adaptive``, the outage schedule) for a trace."""
    truth = ThroughputModel()
    specs = build_jobs(trace, truth, rng=rng)
    cluster = ClusterSpec(n_nodes=w.gpus // GPUS_PER_NODE, gpus_per_node=GPUS_PER_NODE)
    failures = None
    if w.adaptive:
        horizon = max(spec.submit_time for spec in specs) + 86400.0
        failures = NodeFailureModel(mtbf_hours=72.0, mttr_hours=2.0).sample(
            cluster.n_nodes, horizon, rng=rng
        )
    return Inputs(cluster, specs, truth, failures)


def _elasticflow(w: Workload, truth: ThroughputModel):
    """ElasticFlow and, for ``adaptive``, the observation hook feeding it."""
    if not w.adaptive:
        return ElasticFlowPolicy(**PROTECTION), None
    online = OnlineThroughputModel(ScaledThroughputModel(truth, 1.2))

    def observe(job, n_gpus: int, rate: float) -> None:
        online.observe(job.spec.model_name, job.spec.global_batch_size, n_gpus, rate)

    policy = ElasticFlowPolicy(
        **PROTECTION, failure_reserve_gpus=GPUS_PER_NODE, planning_throughput=online
    )
    return policy, observe


def simulators(w: Workload, inputs: Inputs) -> list[Simulator]:
    """One fresh simulator per policy of the workload, ready to ``run()``."""
    sims = []
    for name in w.policies:
        if name == "elasticflow":
            policy, hook = _elasticflow(w, inputs.truth)
        else:
            policy, hook = make_policy(name), None
        sims.append(
            Simulator(
                inputs.cluster,
                policy,
                inputs.specs,
                throughput=inputs.truth,
                slot_seconds=SLOT_SECONDS,
                executor=ElasticExecutor(),
                record_timeline=False,
                failures=inputs.failures,
                observation_hook=hook,
            )
        )
    return sims
