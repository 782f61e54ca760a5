"""Chaos matrix: fault type × connection-lifecycle point × seed.

The paper claims the failover is transparent *no matter when* the fault
happens.  This harness turns that claim into a sweep: a grid of
**lifecycle points** (moments in a connection's life, addressed as "the
n-th packet matching P" or "t = fraction of the clean transfer") crossed
with **fault types** (drop / duplicate / reorder / delay / corrupt for
packets; crash / crash+restart / partition for hosts), each cell run
under the :class:`~repro.harness.invariants.InvariantChecker` with all
randomness keyed off the cell's seed.

A failing cell is reproducible bit-for-bit: its :class:`ChaosResult`
carries the master seed, the rule descriptions and every fault firing —
re-running :func:`run_cell` with the same :class:`CellSpec` replays the
identical event sequence (see ``tests/sim/test_rng_isolation.py``).

The workload, the run and the standard verdicts are the shared bridge
cell of :mod:`repro.harness.cells`: a bulk transfer through the replicated
pair, upload (client → servers) by default, ``direction="download"`` for
the reverse.  This module adds the disturbance (fault rules, host crashes,
reintegration) and the reintegration read-outs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.apps import bulk
from repro.harness.cells import (
    PORT,
    STREAM_START,
    BridgeCell,
    CellResult,
    attach_incident,
    clean_duration,
    summarize,  # re-exported: the matrix's public summary
)
from repro.harness.topology import CLIENT_IP, ChaosLan
from repro.net.faults import (
    Corrupt,
    Delay,
    Drop,
    Duplicate,
    FaultContext,
    Reorder,
    all_predicates,
    covers_byte,
    from_ip,
    is_fin,
    is_syn,
    is_syn_ack,
    to_ip,
)
from repro.obs.flight import FlightRecorder

DEFAULT_SIZE = 120_000
UNTIL = 90.0  # simulated seconds a cell may run before it counts as stalled


# ----------------------------------------------------------------------
# cell addressing
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CellSpec:
    """One cell of the matrix; hashable, printable, re-runnable."""

    point: str
    fault: str
    seed: int = 1
    direction: str = "upload"  # or "download"
    size: int = DEFAULT_SIZE

    def __str__(self) -> str:
        return (
            f"{self.point}/{self.fault}"
            f" seed={self.seed} {self.direction} size={self.size}"
        )


@dataclass
class ChaosResult(CellResult):
    """A chaos cell's result: the shared verdicts plus the fault read-outs."""

    phase_durations: Dict[str, float] = field(default_factory=dict)
    fires: int = 0
    reintegrations: int = 0
    reintegration_phases: Dict[str, float] = field(default_factory=dict)

    def counts(self) -> str:
        return (
            f"fires={self.fires} failed_over={self.failed_over}"
            f" reintegrations={self.reintegrations} acked={self.acked}"
            f" delivered={self.delivered}"
        )


# ----------------------------------------------------------------------
# lifecycle points
# ----------------------------------------------------------------------
#
# A packet point resolves to FaultRule kwargs once the topology is known
# (predicates need the client/service IPs).  ``tap`` selects which tap
# the rule scopes to — the shared medium by default, the secondary's
# receive path for snoop-loss points.


def _client_data(env) -> Callable[[FaultContext], bool]:
    def pred(ctx: FaultContext) -> bool:
        return (
            ctx.segment is not None
            and len(ctx.segment.payload) > 0
            and ctx.src_ip == env["client_ip"]
        )

    return pred


def _client_empty_ack(env) -> Callable[[FaultContext], bool]:
    def pred(ctx: FaultContext) -> bool:
        seg = ctx.segment
        return (
            seg is not None
            and not seg.payload
            and seg.has_ack
            and not seg.syn
            and not seg.fin
            and ctx.src_ip == env["client_ip"]
        )

    return pred


def _service_empty_ack(env) -> Callable[[FaultContext], bool]:
    def pred(ctx: FaultContext) -> bool:
        seg = ctx.segment
        return (
            seg is not None
            and not seg.payload
            and seg.has_ack
            and not seg.syn
            and not seg.fin
            and ctx.dst_ip == env["client_ip"]
        )

    return pred


def _covering(env, offset: int) -> Callable[[FaultContext], bool]:
    if env["direction"] == "upload":
        return all_predicates(
            covers_byte(STREAM_START, offset), from_ip(env["client_ip"])
        )
    return all_predicates(
        lambda ctx: ctx.segment is not None and len(ctx.segment.payload) > 0,
        to_ip(env["client_ip"]),
    )


def _point(selector, nth: int = 0, tap: str = "lan"):
    return {"selector": selector, "nth": nth, "tap": tap}


PACKET_POINTS: Dict[str, dict] = {
    # -- establishment ---------------------------------------------------
    "syn": _point(lambda env: is_syn),
    "syn-ack": _point(lambda env: is_syn_ack),
    "handshake-ack": _point(_client_empty_ack),
    # -- transfer, by segment count -------------------------------------
    "data-0": _point(_client_data, nth=0),
    "data-3": _point(_client_data, nth=3),
    "data-8": _point(_client_data, nth=8),
    "data-15": _point(_client_data, nth=15),
    "data-25": _point(_client_data, nth=25),
    "data-40": _point(_client_data, nth=40),
    "data-60": _point(_client_data, nth=60),
    "data-78": _point(_client_data, nth=78),
    # -- transfer, by byte position (crosses the 2^32 wrap at ~4k) ------
    "byte-wrap": _point(lambda env: _covering(env, 4_000)),
    "byte-mid": _point(lambda env: _covering(env, env["size"] // 2)),
    "byte-tail": _point(lambda env: _covering(env, env["size"] - 1_000)),
    # -- the reverse (ACK) path ------------------------------------------
    "ack-0": _point(_service_empty_ack, nth=0),
    "ack-5": _point(_service_empty_ack, nth=5),
    "ack-20": _point(_service_empty_ack, nth=20),
    "client-ack-2": _point(_client_empty_ack, nth=2),
    # -- teardown --------------------------------------------------------
    "client-fin": _point(lambda env: all_predicates(is_fin, from_ip(env["client_ip"]))),
    "service-fin": _point(lambda env: all_predicates(is_fin, to_ip(env["client_ip"]))),
    # -- the secondary's snoop path (promiscuous receive) ----------------
    "snoop-data-5": _point(_client_data, nth=5, tap="nic:secondary"),
    "snoop-data-30": _point(_client_data, nth=30, tap="nic:secondary"),
}

PACKET_FAULTS: Dict[str, Callable[[], object]] = {
    "drop": Drop,
    "duplicate": lambda: Duplicate(copies=3, gap=80e-6),
    "reorder": lambda: Reorder(slots=2, hold_timeout=0.040),
    "delay": lambda: Delay(0.060, jitter=0.020),
    "corrupt": Corrupt,
}

# Host-lifecycle points: fractions of the measured clean-run duration.
CRASH_FRACTIONS: Dict[str, float] = {
    "pre-handshake": 0.0,
    "early": 0.08,
    "ramp": 0.2,
    "first-third": 0.35,
    "midpoint": 0.5,
    "two-thirds": 0.65,
    "late": 0.8,
    "teardown": 0.95,
}

HOST_FAULTS = ("crash-primary", "crash-primary-restart", "crash-secondary", "partition")

# Reintegration faults: the crashed replica restarts and is re-admitted
# as live secondary (auto_reintegrate); "reintegrate-crash-again" then
# kills the surviving original as well, so the transfer finishes on a
# replica that has been through crash → reintegrate → takeover.
REINTEGRATE_FAULTS = ("crash-restart-reintegrate", "reintegrate-crash-again")
RESTART_DELAY = 0.100  # crash → reboot
SECOND_CRASH_DELAY = 0.300  # crash → the survivor's own crash


def lifecycle_matrix(seeds=(1,), direction: str = "upload") -> List[CellSpec]:
    """The packet-fault grid: every lifecycle point × fault × seed."""
    return [
        CellSpec(point=p, fault=f, seed=s, direction=direction, size=DEFAULT_SIZE)
        for p in PACKET_POINTS
        for f in PACKET_FAULTS
        for s in seeds
    ]


def host_fault_matrix(
    seeds=(1,),
    faults=HOST_FAULTS,
    fractions=tuple(CRASH_FRACTIONS),
) -> List[CellSpec]:
    """The host-fault grid: crash/restart/partition × lifetime fraction."""
    return [
        CellSpec(point=p, fault=f, seed=s, size=DEFAULT_SIZE)
        for p in fractions
        for f in faults
        for s in seeds
    ]


REINTEGRATE_SIZE = 3_000_000  # long enough to straddle restart + rejoin


def reintegration_matrix(seeds=(1,)) -> List[CellSpec]:
    """The reintegration grid: the same eight lifetime fractions as the
    crash sweep, but the dead replica comes back and rejoins — and in the
    ``reintegrate-crash-again`` column the original survivor then dies.

    The stream is deliberately long: early fractions reintegrate (and
    crash again) *mid-stream*, while late fractions cover the degenerate
    rejoin with no resumable connections left."""
    return [
        CellSpec(point=p, fault=f, seed=s, direction="upload", size=REINTEGRATE_SIZE)
        for p in CRASH_FRACTIONS
        for f in REINTEGRATE_FAULTS
        for s in seeds
    ]


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------


def run_cell(spec: CellSpec) -> ChaosResult:
    """Run one chaos cell end-to-end and check every invariant."""
    lan = ChaosLan(seed=spec.seed, failover_ports=(PORT,))
    cell = BridgeCell(lan, spec.size, spec.direction)
    env = {
        "client_ip": CLIENT_IP,
        "service_ip": lan.server_ip,
        "size": spec.size,
        "direction": spec.direction,
    }
    result = ChaosResult(spec=spec)

    # -- wire the fault --------------------------------------------------
    if spec.fault in PACKET_FAULTS:
        point = PACKET_POINTS[spec.point]
        lan.plane.rule(
            f"{spec.point}/{spec.fault}",
            PACKET_FAULTS[spec.fault](),
            point=point["tap"],
            match=point["selector"](env),
            nth=point["nth"],
        )
    elif spec.fault in HOST_FAULTS or spec.fault in REINTEGRATE_FAULTS:
        t_clean = clean_duration(spec.seed, spec.direction, spec.size)
        when = max(1e-4, CRASH_FRACTIONS[spec.point] * t_clean)
        if spec.fault in REINTEGRATE_FAULTS:
            # The crashed primary reboots and is automatically re-admitted
            # as the live secondary (the pair's restart hook fires after
            # ``REINTEGRATE_DELAY``), resuming through the warm-sync apps.
            lan.pair.auto_reintegrate = True
            lan.plane.crash_at(lan.primary, when)
            lan.plane.restart_at(lan.primary, when + RESTART_DELAY)
            if spec.fault == "reintegrate-crash-again":
                lan.plane.crash_at(lan.secondary, when + SECOND_CRASH_DELAY)
            _install_warm_sync(cell)
        elif spec.fault == "crash-primary":
            lan.plane.crash_at(lan.primary, when)
        elif spec.fault == "crash-primary-restart":
            lan.plane.crash_at(lan.primary, when)
            lan.plane.restart_at(lan.primary, when + 0.100)
        elif spec.fault == "crash-secondary":
            lan.plane.crash_at(lan.secondary, when)
        elif spec.fault == "partition":
            # Client ↔ service only.  Partitioning the replicas from each
            # other would violate the paper's fail-stop model (both
            # detectors would fire and both replicas would own a_p).
            lan.plane.partition(
                "lan", between=(CLIENT_IP, lan.server_ip),
                start=when, duration=0.080,
            )
    elif spec.fault != "none":
        raise ValueError(f"unknown fault {spec.fault!r}")

    cell.start()
    cell.finish(result, UNTIL)
    result.reintegrations = len(lan.pair.reintegrations)
    result.fires = len(lan.plane.fires)

    attach_incident(result, lan.tracer)
    if result.tracer is not None:
        recorder = FlightRecorder(result.tracer)
        breakdown = recorder.phase_breakdown()
        if breakdown is not None:
            result.phase_durations = breakdown.durations()
        for reint in recorder.reintegration_breakdowns():
            if reint.phases:
                result.reintegration_phases = reint.durations()
                break
    return result


def _install_warm_sync(cell: BridgeCell) -> None:
    """Give the pair the apps a rejoining replica resumes through."""
    received, blob = cell.received, cell.blob

    if cell.direction == "upload":

        def resume_server(host, sock, resume):
            # Warm sync: adopt the survivor's already-consumed prefix (the
            # replicated app is deterministic, so the first ``resume.read``
            # bytes are identical), then keep receiving through the
            # adopted socket.
            other = next(
                (buf for name, buf in received.items() if name != host.name),
                b"",
            )
            data = received.setdefault(host.name, bytearray())
            del data[:]
            data.extend(other[: resume.read])
            yield from cell.drain(sock, data)
            yield from sock.close_and_wait()

        # Whole-app warm sync: stream bytes whose connection already
        # closed live only in the survivor's buffer — copy them, or a
        # second crash loses data the client saw acknowledged.
        def warm_sync(survivor_host, joiner_host):
            src = received.get(survivor_host.name)
            if src is None:
                return
            dst = received.setdefault(joiner_host.name, bytearray())
            if len(src) > len(dst):
                del dst[:]
                dst.extend(src)

        cell.lan.pair.set_warm_sync(warm_sync)

    else:  # download
        resume_server = bulk.resume_source(blob)

    cell.lan.pair.set_resume_app(resume_server)


def run_matrix(specs: List[CellSpec]) -> List[ChaosResult]:
    """Run many cells; returns every result (callers assert on failures)."""
    return [run_cell(spec) for spec in specs]
