"""Ablation benches for the design decisions called out in DESIGN.md.

1. Pessimistic planning curves — Section 4.3's rejected "naive approach":
   plan as if every job were maximally scattered.  Buddy placement makes
   compact curves safe, and pessimism should cost admitted jobs.
2. Power-of-two worker counts — the CoDDL-style restriction buddy
   allocation needs.  Measured as extra GPU-time of the minimum
   satisfactory shares versus unrestricted integer sizes.
3. Slot-width sensitivity — planning granularity versus outcome quality.
"""

import numpy as np

from conftest import run_once

from repro.core import AdmissionController, ElasticFlowPolicy, SlotGrid
from repro.core.admission import planning_job
from repro.core.job import Job, JobSpec
from repro.experiments import format_table
from repro.experiments.harness import run_policies
from repro.experiments.harness import testbed_workload as build_testbed
from repro.profiles import InterconnectSpec, LinkSpec, ThroughputModel
from repro.sim import Simulator


def pessimistic_model() -> ThroughputModel:
    """Curves assuming one GPU per server — the worst legal placement."""
    scattered = InterconnectSpec(
        gpus_per_node=1,
        hcas_per_node=1,
        inter_node=LinkSpec(alpha_s=80e-6, beta_bytes_per_s=9e9),
    )
    return ThroughputModel(scattered)


def test_ablation_pessimistic_planning(benchmark, config):
    """Planning with worst-placement curves admits visibly fewer jobs."""

    def run():
        cluster, specs = build_testbed(
            config, cluster_gpus=64, n_jobs=80, target_load=1.6
        )
        compact = run_policies(["elasticflow"], cluster, specs, config)[
            "elasticflow"
        ]
        pessimist_policy = ElasticFlowPolicy(
            safety_margin=config.safety_margin,
            deadline_padding_s=config.deadline_padding_s,
            stability_threshold=config.stability_threshold,
            planning_throughput=pessimistic_model(),
        )
        pessimist = Simulator(
            cluster,
            pessimist_policy,
            specs,
            throughput=config.throughput,
            slot_seconds=config.slot_seconds,
            executor=config.executor(),
        ).run()
        return compact, pessimist

    compact, pessimist = run_once(benchmark, run)
    print()
    print(
        format_table(
            ["Planning curves", "DSR", "Admitted", "Dropped"],
            [
                ("compact (buddy)", compact.deadline_satisfactory_ratio,
                 compact.admitted_count, compact.dropped_count),
                ("pessimistic (naive)", pessimist.deadline_satisfactory_ratio,
                 pessimist.admitted_count, pessimist.dropped_count),
            ],
            title="Ablation: Section 4.3 placement-aware vs pessimistic planning",
        )
    )
    assert compact.admitted_count > pessimist.admitted_count
    assert (
        compact.deadline_satisfactory_ratio
        > pessimist.deadline_satisfactory_ratio
    )


def test_ablation_power_of_two_cost(benchmark):
    """Buddy's power-of-two restriction costs little extra GPU-time."""

    def run():
        capacity = 64
        grid = SlotGrid(origin=0.0, slot_seconds=600.0, horizon=24)
        results = {}
        for restricted in (True, False):
            model = ThroughputModel(power_of_two=restricted)
            controller = AdmissionController(capacity)
            infos = []
            rng_local = np.random.default_rng(7)
            for i in range(12):
                name = ("resnet50", "vgg16", "bert")[int(rng_local.integers(3))]
                curve = model.curve(name, 128)
                seconds = float(rng_local.uniform(1800, 7200))
                spec_job = Job(
                    spec=JobSpec(
                        job_id=f"j{i}",
                        model_name=name,
                        global_batch_size=128,
                        max_iterations=max(1, int(curve.throughput(1) * seconds)),
                        deadline=float(rng_local.uniform(0.8, 1.5)) * seconds,
                    )
                )
                infos.append(planning_job(spec_job, curve, grid, capacity))
            outcome = controller.plan_shares(infos, grid)
            gpu_time = sum(
                float(np.sum(plan)) * grid.slot_seconds
                for plan in outcome.plans.values()
            )
            results[restricted] = (gpu_time, len(outcome.degraded))
        return results

    results = run_once(benchmark, run)
    restricted_time, restricted_failures = results[True]
    free_time, free_failures = results[False]
    print()
    print(
        format_table(
            ["Sizes", "Min-share GPU-time (GPU-h)", "Infeasible"],
            [
                ("powers of two", restricted_time / 3600.0, restricted_failures),
                ("unrestricted", free_time / 3600.0, free_failures),
            ],
            title="Ablation: cost of the power-of-two (buddy) restriction",
        )
    )
    # The restriction wastes at most a modest factor of reserved GPU-time
    # and breaks no feasibility on this workload.
    assert restricted_failures <= free_failures + 1
    assert restricted_time <= 2.0 * free_time + 1e-9


def test_ablation_online_profiling(benchmark, config):
    """Section 5's during-execution profiling: a 50 %-optimistic stale
    profile breaks admitted deadlines; the online EWMA correction repairs
    planning and restores the guarantee."""
    from repro.profiles import OnlineThroughputModel, ScaledThroughputModel

    def run():
        cluster, specs = build_testbed(
            config, cluster_gpus=16, n_jobs=40, target_load=1.6
        )

        def simulate(planning, hook=None):
            return Simulator(
                cluster,
                ElasticFlowPolicy(planning_throughput=planning),
                specs,
                throughput=config.throughput,
                slot_seconds=config.slot_seconds,
                executor=config.executor(),
                observation_hook=hook,
            ).run()

        stale = simulate(ScaledThroughputModel(config.throughput, 1.5))
        online = OnlineThroughputModel(
            ScaledThroughputModel(config.throughput, 1.5)
        )

        def hook(job, n_gpus, rate):
            online.observe(
                job.spec.model_name, job.spec.global_batch_size, n_gpus, rate
            )

        corrected = simulate(online, hook)
        return stale, corrected

    stale, corrected = run_once(benchmark, run)

    def missed(result):
        return sum(1 for o in result.outcomes if o.admitted and not o.met_deadline)

    print()
    print(
        format_table(
            ["Planning profile", "DSR", "Admitted", "Admitted-but-late"],
            [
                ("stale (1.5x optimistic)", stale.deadline_satisfactory_ratio,
                 stale.admitted_count, missed(stale)),
                ("online-corrected", corrected.deadline_satisfactory_ratio,
                 corrected.admitted_count, missed(corrected)),
            ],
            title="Ablation: Section 5 during-execution throughput profiling",
        )
    )
    assert missed(stale) > 0
    assert missed(corrected) < missed(stale)


def test_ablation_slot_width(benchmark, config):
    """Coarser planning slots degrade outcomes only gradually."""

    def run():
        cluster, specs = build_testbed(
            config, cluster_gpus=64, n_jobs=80, target_load=1.6
        )
        ratios = {}
        for slot in (300.0, 600.0, 1800.0):
            policy = config.policy("elasticflow")
            result = Simulator(
                cluster,
                policy,
                specs,
                throughput=config.throughput,
                slot_seconds=slot,
                executor=config.executor(),
            ).run()
            ratios[slot] = result.deadline_satisfactory_ratio
        return ratios

    ratios = run_once(benchmark, run)
    print()
    print(
        format_table(
            ["Slot width (s)", "DSR"],
            [(int(slot), ratio) for slot, ratio in ratios.items()],
            title="Ablation: planning-slot width sensitivity",
        )
    )
    values = list(ratios.values())
    assert max(values) - min(values) < 0.25
