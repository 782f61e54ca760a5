"""Shared helpers for the test suite.

The testbeds themselves are built by :mod:`repro.harness.topology`; the
names the test files use are re-exported here.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, Generator, List, Set

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
    "run_process", "run_all", "ROOT", "documented",
]

ROOT = Path(__file__).resolve().parents[1]

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


def documented(section: str, end: str, prefix: str) -> Dict[str, Set[str]]:
    """``{layer: {names under prefix}}`` from one DESIGN.md Appendix A
    table (the text between two headings); a bare name after a slash shares
    the dotted prefix of the name before it."""
    text = (ROOT / "DESIGN.md").read_text().split(section)[1].split(end)[0]
    found: Dict[str, Set[str]] = {}
    for row in text.splitlines():
        cells = [cell.strip() for cell in row.replace("\\|", "/").split("|")]
        if len(cells) < 4 or f"`{prefix}" not in cells[1]:
            continue
        stem = ""
        for name in re.findall(r"`([\w.]+)`", cells[1]):
            if "." in name:
                stem = name.rsplit(".", 1)[0] + "."
            elif "=" not in name:
                name = stem + name
            if name.startswith(prefix):
                found.setdefault(cells[2].strip("`"), set()).add(name)
    return found
