"""The repository's benchmark: seeded trace-replay workloads, end-to-end
decision-latency / throughput / quality metrics, and a per-layer split
traced from outside the program.

- ``python3 bench/run.py --workload W --seed S --seconds T --trace 0|1``
  is one run (the command ``BENCHMARK.json`` names);
- ``python -m bench`` runs workloads in fresh processes, repeats them in
  round-robin order, compares result files and records golden digests.

See ``bench/README.md``.
"""
