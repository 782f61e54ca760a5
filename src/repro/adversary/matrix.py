"""Attack matrix: strategy × attacker position × lifetime fraction.

The chaos matrix (:mod:`repro.harness.chaos`) sweeps *faults*; this
matrix sweeps *adversaries*.  Every cell runs a seeded topology with an
off-path attacker attached, fires one attack strategy at a chosen
fraction of the connection's lifetime, and checks the isolation
invariants on top of the usual stream/liveness/agreement set.  Every
bridge cell also crashes the primary mid-transfer, so every attack
plays out against a connection that *will* fail over — the adversarial
and failover machinery are exercised together, not in isolation.

Determinism contract: all attacker randomness comes from registry
streams derived from the cell seed, so a cell replays bit-for-bit —
:meth:`AttackResult.fingerprint` is a canonical string that must be
byte-identical across runs of the same spec (CI runs the shard twice
and ``cmp``'s the artifacts).

Cell topology by strategy:

* segment strategies (``rst-sweep``, ``syn-sweep``, ``fin-ack-sweep``,
  ``pmtud-probe``, ``seq-infer``, ``arp-race``) run on an
  :class:`AttackLan` — the chaos LAN plus an attacker station — against
  the shared bridge cell (:mod:`repro.harness.cells`), one bulk upload
  through the replicated pair;
* ``flow-poison`` runs on a small :class:`~repro.cluster.fleet.
  ShardedFleet` with the attacker on the front LAN, poisoning the
  dispatcher's flow table under a closed-loop workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.adversary.attacker import AttackerHost
from repro.adversary.strategies import (
    INFER_BUDGET,
    INFER_MIN_ERROR,
    STRATEGIES,
    AttackContext,
)
from repro.harness import cells
from repro.harness.cells import (
    PORT,
    BridgeCell,
    CellResult,
    attach_incident,
    clean_duration,
    summarize,  # re-exported: the matrix's public summary
)
from repro.harness.invariants import InvariantChecker, Violation
from repro.harness.report import Report, Table
from repro.harness.topology import CLIENT_IP, ChaosLan
from repro.net.addresses import Ipv4Address, MacAddress
from repro.net.host import Host
from repro.obs.metrics import MetricsRegistry
from repro.sim.process import spawn
from repro.sim.rng import seeded_rng

# Big enough that a ~0.13 s attack burst overlaps the transfer (and the
# mid-transfer crash + takeover) instead of outliving it.
DEFAULT_SIZE = 2_000_000

#: Every bridge cell crashes the primary at this fraction of the clean
#: transfer, so "early" attacks hit the original primary, "midpoint"
#: attacks straddle the takeover, and "late" attacks hit the secondary
#: serving the failed-over connection.
CRASH_FRACTION = 0.45

ATTACK_FRACTIONS: Dict[str, float] = {
    "early": 0.1,
    "midpoint": 0.5,
    "late": 0.8,
}

POSITIONS = ("client", "service")

# Dispatcher-cell geometry (flow-poison): a small fleet, a short
# closed-loop workload, and a deliberately tight flow table so the
# table-fill attack actually reaches capacity.
FLEET_SHARDS = 2
FLEET_CLIENTS = 2
FLEET_SESSIONS = 6
FLEET_RAMP = 0.05
FLEET_HOLD = 0.9
FLEET_MAX_FLOWS = 64
FLEET_FLOW_IDLE = 0.2
ATTACKER_FRONT_IP = Ipv4Address("10.0.0.66")


@dataclass(frozen=True)
class AttackSpec:
    """One cell of the attack matrix; hashable, printable, re-runnable."""

    strategy: str
    position: str
    fraction: str
    seed: int = 1
    size: int = DEFAULT_SIZE

    def __str__(self) -> str:
        return (
            f"{self.strategy}@{self.position}/{self.fraction}"
            f" seed={self.seed} size={self.size}"
        )


@dataclass
class AttackResult(CellResult):
    """An attack cell's result: the shared verdicts plus the attacker's
    accounting, comparable across replays by :meth:`fingerprint`."""

    injections: int = 0
    injections_by_kind: Dict[str, int] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    results: Dict[str, object] = field(default_factory=dict)

    def fingerprint(self) -> str:
        """Canonical byte-stable summary for replay comparison."""
        parts = [str(self.spec), f"injections={self.injections}"]
        parts += [f"inj.{k}={v}" for k, v in sorted(self.injections_by_kind.items())]
        parts += [f"{k}={v}" for k, v in sorted(self.counters.items())]
        parts += [f"res.{k}={v}" for k, v in sorted(self.results.items())]
        parts.append(f"violations={len(self.violations)}")
        parts += [str(v) for v in self.violations]
        parts += [
            f"delivered={self.delivered}",
            f"finished={self.finished}",
            f"failed_over={self.failed_over}",
            f"duration={self.duration:.9f}",
        ]
        return "|".join(parts)

    def counts(self) -> str:
        return (
            f"injections={self.injections} failed_over={self.failed_over}"
            f" delivered={self.delivered}"
        )


def attack_matrix(
    seeds=(1,),
    strategies=tuple(STRATEGIES),
    positions=POSITIONS,
    fractions=tuple(ATTACK_FRACTIONS),
    size: int = DEFAULT_SIZE,
) -> List[AttackSpec]:
    """The full grid: strategy × position × lifetime fraction × seed."""
    return [
        AttackSpec(strategy=st, position=p, fraction=f, seed=s, size=size)
        for st in strategies
        for p in positions
        for f in fractions
        for s in seeds
    ]


# ----------------------------------------------------------------------
# bridge cells (AttackLan)
# ----------------------------------------------------------------------

ATTACKER_IP = Ipv4Address("10.0.0.9")


class AttackLan(ChaosLan):
    """ChaosLan plus an off-path attacker station on the shared segment.

    Metrics are always on: the ``tcp.challenge_acks`` counter *is* the
    modeled side channel the sequence-inference strategy reads, so an
    adversarial cell without metrics would silently test nothing.
    """

    def __init__(self, seed: int = 0, metrics: Optional[MetricsRegistry] = None,
                 **kwargs):
        if metrics is None:
            metrics = MetricsRegistry()
        super().__init__(seed=seed, metrics=metrics, **kwargs)
        # Off-path, not blind to L2: the attacker shares the segment, so
        # it knows every station's MAC (and could learn them passively).
        self.attacker = AttackerHost(
            self.add_station("attacker", 9, ATTACKER_IP),
            self.rng.stream("adversary.attacker"),
        )


def _bridge_cell(spec: AttackSpec, until: float = 30.0) -> AttackResult:
    lan = AttackLan(seed=spec.seed, failover_ports=(PORT,))
    cell = BridgeCell(lan, spec.size)
    result = AttackResult(spec=spec)

    # -- attacker wiring -------------------------------------------------
    def client_port() -> Optional[int]:
        return cell.sock.conn.local_port if cell.sock is not None else None

    def victim():
        if spec.position == "client":
            return "client", (cell.sock.conn if cell.sock is not None else None)
        host = cell.serving_host()
        cport = client_port()
        conn = None
        if cport is not None:
            conn = host.tcp.connections.get(
                (lan.server_ip, PORT, CLIENT_IP, cport)
            )
        return host.name, conn

    ctx = AttackContext(
        sim=lan.sim,
        rng=lan.rng.stream("adversary.strategy"),
        position=spec.position,
        client_ip=CLIENT_IP,
        service_ip=lan.server_ip,
        service_port=PORT,
        client_port=client_port,
        victim=victim,
        challenge_counter=lambda name: lan.metrics.counter(
            "tcp.challenge_acks", host=name
        ),
    )

    checker: InvariantChecker = lan.checker

    def burst():
        yield burst_at
        _name, conn = victim()
        floor_mss = conn.mss if conn is not None else None
        yield from STRATEGIES[spec.strategy](lan.attacker, ctx)
        # Mid-run isolation checks, while the transfer should still be
        # live (a closed-because-finished connection is not a violation).
        label = str(spec)
        post_name, post_conn = victim()
        if post_conn is not None and not cell.process.done_event.triggered:
            checker.check_connection_survived(
                post_conn, f"{label} [{post_name}]", now=lan.sim.now
            )
        if (
            spec.strategy == "pmtud-probe"
            and post_conn is not None
            and floor_mss is not None
        ):
            checker.check_pmtud_isolation(
                post_conn, floor_mss, label, now=lan.sim.now
            )

    attacking = spec.strategy != "none"  # "none": the attack-off baseline
    if attacking:
        t_clean = clean_duration(spec.seed, cell.direction, spec.size)
        lan.plane.crash_at(lan.primary, max(1e-4, CRASH_FRACTION * t_clean))
        burst_at = max(2e-4, ATTACK_FRACTIONS[spec.fraction] * t_clean)

    cell.start()
    if attacking:
        spawn(lan.sim, burst(), "attack-burst")
    cell.finish(result, until)
    checker.check_no_spoofed_teardown()
    if spec.strategy == "seq-infer":
        result.results = dict(ctx.results)
        checker.check_seq_not_inferred(
            int(ctx.results.get("seq_error", 1 << 31)),
            int(ctx.results.get("seq_probes", 0)),
            INFER_BUDGET,
            min_error=INFER_MIN_ERROR,
            now=lan.sim.now,
        )

    # -- accounting ------------------------------------------------------
    result.injections = lan.attacker.injections
    result.injections_by_kind = dict(lan.attacker.injections_by_kind)
    for host in (lan.client, lan.primary, lan.secondary):
        name = host.name
        result.counters[f"challenge_acks.{name}"] = lan.metrics.counter(
            "tcp.challenge_acks", host=name
        ).value
        result.counters[f"pmtud_rejected.{name}"] = host.tcp.pmtud_rejected
        result.counters[f"pmtud_accepted.{name}"] = host.tcp.pmtud_accepted
        result.counters[f"arp_ignored.{name}"] = (
            host.eth_interface.arp.gratuitous_ignored
        )
    result.counters["bridge.rsts_ignored"] = getattr(
        lan.pair.primary_bridge, "rsts_ignored", 0
    )

    attach_incident(result, lan.tracer)
    return result


# ----------------------------------------------------------------------
# dispatcher cells (ShardedFleet)
# ----------------------------------------------------------------------


def _dispatcher_cell(spec: AttackSpec, until: float = 30.0) -> AttackResult:
    from repro.cluster.fleet import ShardedFleet
    from repro.workload.distributions import Fixed
    from repro.workload.generator import ClosedLoopWorkload

    fleet = ShardedFleet(
        shards=FLEET_SHARDS,
        clients=FLEET_CLIENTS,
        seed=spec.seed,
        record_traces=True,
        enable_metrics=True,
        detector_interval=0.005,
        detector_timeout=0.020,
    )
    service = fleet.service
    service.max_flows = FLEET_MAX_FLOWS
    service.flow_idle_timeout = FLEET_FLOW_IDLE
    fleet.run_reply_service()
    fleet.start_detectors()
    checker = fleet.attach_invariant_checker(
        InvariantChecker(tracer=fleet.tracer)
    )
    result = AttackResult(spec=spec)

    station = Host(
        fleet.sim, "attacker", MacAddress(0x0200_00AA_00F9),
        tracer=fleet.tracer, rng=fleet.rng.stream("host.attacker"),
    )
    station.attach_ethernet(fleet.front_segment, ATTACKER_FRONT_IP)
    station.eth_interface.arp.prime(fleet.virtual_ip, fleet.dispatcher.nic.mac)
    attacker = AttackerHost(station, fleet.rng.stream("adversary.attacker"))

    workload = ClosedLoopWorkload(
        fleet.clients, fleet.virtual_ip, fleet.service_port, fleet.rng,
        sessions=FLEET_SESSIONS, reply_sizes=Fixed(64),
        think_times=Fixed(0.005), ramp=FLEET_RAMP, hold_for=FLEET_HOLD,
    )
    t_clean = FLEET_RAMP + FLEET_HOLD
    burst_at = max(2e-4, ATTACK_FRACTIONS[spec.fraction] * t_clean)
    fleet.sim.schedule(
        CRASH_FRACTION * t_clean, fleet.shards[0].pair.crash_primary
    )

    clients_by_ip = {c.ip.primary_address().value: c for c in fleet.clients}

    ctx = AttackContext(
        sim=fleet.sim,
        rng=fleet.rng.stream("adversary.strategy"),
        position=spec.position,
        client_ip=fleet.clients[0].ip.primary_address(),
        service_ip=fleet.virtual_ip,
        service_port=fleet.service_port,
        client_port=lambda: None,
        victim=lambda: ("dispatcher", None),
        service=service,
    )

    def live_pins(expected: Dict[Tuple[int, int], str]) -> Dict:
        """Pins whose client connection is still open — evicting a flow
        whose session already closed is correct idle cleanup, not
        poisoning."""
        live = {}
        for (ip_value, port), shard_id in expected.items():
            host = clients_by_ip.get(ip_value)
            if host is None:
                continue
            conn = host.tcp.connections.get(
                (Ipv4Address(ip_value), port,
                 fleet.virtual_ip, fleet.service_port)
            )
            if conn is not None and conn.state.value == "ESTABLISHED":
                live[(ip_value, port)] = shard_id
        return live

    def burst():
        yield burst_at
        expected: Dict[Tuple[int, int], str] = {}
        for _sid, (ip, port) in sorted(workload.stats.session_flows.items()):
            slot = service.flows.slot_of((ip.value, port))
            if slot >= 0:
                expected[(ip.value, port)] = service.flows.shard_at(slot)
        ctx.victim_flows = dict(expected)
        yield from STRATEGIES["flow-poison"](attacker, ctx)
        checker.check_flow_isolation(
            service, live_pins(expected), now=fleet.sim.now
        )

    workload.start()
    spawn(fleet.sim, burst(), "attack-burst")
    fleet.sim.run_until(lambda: workload.complete, timeout=until)
    result.finished = workload.complete
    result.duration = fleet.sim.now
    fleet.sim.run(until=fleet.sim.now + 0.3)

    stats = workload.stats
    if not result.finished:
        checker.violations.append(Violation(
            fleet.sim.now, "liveness",
            f"workload did not complete within {until}s of simulated time",
        ))
    if stats.sessions_failed:
        checker.violations.append(Violation(
            fleet.sim.now, "attack-burst-survival",
            f"{stats.sessions_failed} session(s) failed under flow-table"
            f" poisoning: {stats.failures}",
        ))
    if stats.corrupt_replies:
        checker.violations.append(Violation(
            fleet.sim.now, "stream-prefix",
            f"{stats.corrupt_replies} corrupt replies under poisoning",
        ))
    checker.check_no_spoofed_teardown()
    checker.check_replica_agreement()
    result.violations = checker.violations

    result.failed_over = fleet.shards[0].pair.failed_over
    result.injections = attacker.injections
    result.injections_by_kind = dict(attacker.injections_by_kind)
    result.delivered = stats.reply_bytes
    result.counters = {
        "dispatcher.syn_reassigns_refused": service.syn_reassigns_refused,
        "dispatcher.flows_rejected": service.flows_rejected,
        "dispatcher.segments_dropped": service.segments_dropped,
        "dispatcher.flows": len(service.flows),
        "workload.requests": stats.requests_completed,
        "workload.sessions_completed": stats.sessions_completed,
        "workload.sessions_failed": stats.sessions_failed,
    }

    attach_incident(result, fleet.tracer)
    return result


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------


def run_attack_cell(spec: AttackSpec, until: float = 30.0) -> AttackResult:
    """Run one attack cell end-to-end and check every invariant."""
    if spec.strategy != "none" and spec.strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {spec.strategy!r}")
    if spec.position not in POSITIONS:
        raise ValueError(f"unknown position {spec.position!r}")
    if spec.fraction not in ATTACK_FRACTIONS:
        raise ValueError(f"unknown fraction {spec.fraction!r}")
    if spec.strategy == "flow-poison":
        return _dispatcher_cell(spec, until=until)
    return _bridge_cell(spec, until=until)


def run_attack_matrix(
    specs: List[AttackSpec], until: float = 30.0
) -> List[AttackResult]:
    """Run many cells; returns every result (callers assert on failures)."""
    return cells.run_matrix(run_attack_cell, specs, until)


def attack_shard_report(seed: int = 1, shard_size: Optional[int] = None) -> Report:
    """E13: a seeded shard of *shard_size* cells of the attack matrix (all of
    it when ``None``) — per-cell isolation verdicts, the matrix summary and a
    flight-recorder incident report for one cell, so the attack-phase
    tiling (attack bursts beside detection/takeover) is visible even when
    every invariant holds.  ``raw`` is the list of :class:`AttackResult`."""
    specs = attack_matrix(seeds=(seed,))
    if shard_size is not None and shard_size < len(specs):
        picked = sorted(seeded_rng(seed).sample(range(len(specs)), shard_size))
        specs = [specs[i] for i in picked]
    results = run_attack_matrix(specs)

    rows = []
    bench_rows = []
    for r in results:
        cell = f"{r.spec.strategy}@{r.spec.position}/{r.spec.fraction}"
        challenges = sum(
            v for k, v in r.counters.items()
            if k.startswith("challenge_acks.")
        )
        refused = r.counters.get("dispatcher.syn_reassigns_refused", 0)
        rows.append((
            cell, r.injections, challenges, refused, r.delivered,
            "X" if r.failed_over else "", "ok" if r.ok else "FAIL",
        ))
        bench_rows.append({
            "label": cell,
            "metrics": {
                "injections": r.injections,
                "challenges": challenges,
                "refused": refused,
                "delivered": r.delivered,
                "violations": len(r.violations),
                "duration_s": round(r.duration, 9),
            },
        })
    notes = ["", summarize(results)]

    # One incident report per run: prefer a failing cell (real incident),
    # otherwise showcase the busiest traced cell so the attacker-phase
    # tiling and provenance-tagged records are demonstrated regardless.
    showcase = next((r for r in results if not r.ok), None)
    incident = showcase.incident if showcase is not None else ""
    if not incident:
        traced = [r for r in results if r.tracer is not None]
        if traced:
            busiest = max(traced, key=lambda r: r.injections)
            incident = busiest.incident_report(" (all invariants held)")
    if incident:
        notes += ["", incident]
    return Report(
        "adversary_matrix", {"seed": seed, "cells": len(results)}, bench_rows,
        tables=[Table(
            f"E13: attack matrix shard ({len(results)} cells, seed={seed})",
            ["cell", "inject", "challenges", "refused", "delivered",
             "failed over", "status"],
            rows,
        )],
        notes=notes,
        raw=results,
    )


def adversary_command(parser) -> None:
    """E13  seeded shard of the adversarial attack matrix"""
    parser.add_argument("--seed", type=int, default=1, help="matrix seed")
    parser.add_argument("--cells", type=int, default=None,
                        help="shard size (default: the full matrix;"
                             " 6 with --quick)")

    def run(args) -> Report:
        shard_size = args.cells if args.cells is not None else 6 if args.quick else None
        report = attack_shard_report(args.seed, shard_size)
        report.params["quick"] = bool(args.quick)
        return report

    parser.set_defaults(run=run)
