"""The repo benchmark: seeded workloads over the simulated failover bridge.

``python -m bench --seed N`` runs every workload, verifies its output and
prints every metric of ``/BENCHMARK.json`` by name with its unit.  Two kinds
of end-to-end number are kept apart everywhere:

* **host time** -- what the simulator costs whoever runs it (noisy, bounded);
* **simulated time** -- what the modelled bridge would deliver (a pure
  function of the seed, must repeat exactly).

Per-layer numbers come from a separate traced run in which :mod:`bench.tracing`
wraps the packages' entry points from outside; nothing under ``src/`` knows
about this package.  See ``bench/README.md``.
"""
