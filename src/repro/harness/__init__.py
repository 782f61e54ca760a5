"""Experiment harness: calibrated topologies, workloads and runners.

One ``*_report`` function per paper table/figure lives in
:mod:`repro.harness.experiments` (run the sweep, return the
:class:`~repro.harness.report.Report`); ``python -m repro`` and the
benchmarks under ``benchmarks/`` are thin wrappers over the same function —
the benchmarks add the shape assertions the paper's claims come down to.
"""

from repro.harness.chaos import (
    CellSpec,
    ChaosResult,
    host_fault_matrix,
    lifecycle_matrix,
    run_cell,
    run_matrix,
)
from repro.harness.chaos import summarize as summarize_chaos
from repro.harness.invariants import InvariantChecker, Violation
from repro.harness.metrics import Stats, rate_kb_s, summarize
from repro.harness.topology import (
    CLIENT_PROFILE,
    ROUTER_ARP_DELAY,
    SERVER_PROFILE,
    LanTestbed,
    WanTestbed,
)

__all__ = [
    "CLIENT_PROFILE",
    "CellSpec",
    "ChaosResult",
    "InvariantChecker",
    "LanTestbed",
    "ROUTER_ARP_DELAY",
    "SERVER_PROFILE",
    "Stats",
    "Violation",
    "WanTestbed",
    "host_fault_matrix",
    "lifecycle_matrix",
    "rate_kb_s",
    "run_cell",
    "run_matrix",
    "summarize",
    "summarize_chaos",
]
