"""Shared helpers for the test suite.

The testbeds themselves are built by :mod:`repro.harness.topology`; the
names the test files use are re-exported here.
"""

from __future__ import annotations

from typing import Generator, List

from repro.adversary.matrix import AttackLan
from repro.harness.topology import (
    CLIENT_IP,
    LAN_MAC_BASE,
    PRIMARY_IP,
    SECONDARY_IP,
    ChaosLan,
    ReplicatedLan,
    TwoHostLan,
)
from repro.net.addresses import MacAddress
from repro.sim.engine import Simulator
from repro.sim.process import spawn

__all__ = [
    "CLIENT_IP", "SERVER_IP", "PRIMARY_IP", "SECONDARY_IP", "mac",
    "TwoHostLan", "ReplicatedLan", "ChaosLan", "AttackLan",
    "run_process", "run_all",
]

SERVER_IP = PRIMARY_IP  # TwoHostLan's single server sits at the primary's address


def mac(index: int) -> MacAddress:
    return MacAddress(LAN_MAC_BASE + index)


def run_process(
    sim: Simulator, generator: Generator, until: float = 30.0, settle: float = 0.25
):
    """Spawn a process, run until it finishes (or the budget expires).

    ``settle`` simulated seconds are run after completion so that
    in-flight segments, detector firings and takeovers triggered near the
    end have landed before the test inspects state.
    """
    process = spawn(sim, generator, "test-proc")
    sim.run_until(lambda: process.done_event.triggered, timeout=until)
    if not process.done_event.triggered:
        raise AssertionError("process did not finish within the time budget")
    sim.run(until=sim.now + settle)
    return process.result


def run_all(
    sim: Simulator,
    generators: List[Generator],
    until: float = 30.0,
    settle: float = 0.25,
) -> list:
    """Spawn processes and run until all finish (stops early on success)."""
    processes = [spawn(sim, g, f"test-proc-{i}") for i, g in enumerate(generators)]
    sim.run_until(
        lambda: all(p.done_event.triggered for p in processes), timeout=until
    )
    for process in processes:
        if not process.done_event.triggered:
            raise AssertionError(f"{process.name} did not finish")
    sim.run(until=sim.now + settle)
    return [process.result for process in processes]
