"""Seeded workload generation for fleet-scale experiments.

:class:`~repro.workload.generator.ClosedLoopWorkload` is a fixed
population of think-time clients, each holding one connection and
issuing request/reply exchanges (the load shape behind the capacity
benchmark's concurrency floor).  It draws every random quantity through
named :mod:`repro.sim.rng` streams, so a run replays bit-for-bit from
its seed.

Flow sizes come from :mod:`repro.workload.distributions` — notably the
bounded Pareto that gives request/reply traffic its heavy tail.

The package deliberately knows nothing about the cluster plane: it takes
client hosts, a destination address and a port.  :mod:`repro.cluster`
composes the two.
"""

from repro.workload.distributions import BoundedPareto, Exponential, Fixed
from repro.workload.generator import ClosedLoopWorkload, WorkloadStats

__all__ = [
    "BoundedPareto",
    "ClosedLoopWorkload",
    "Exponential",
    "Fixed",
    "WorkloadStats",
]
