"""Capacity benchmark: offered load vs. a failover storm.

One run builds a :class:`~repro.cluster.fleet.ShardedFleet`, drives it
with a closed-loop population of long-lived sessions, and — mid-run —
kills a fraction of the primaries at once.  Sessions pinned to killed
shards ride the paper's mechanism (secondary takes over the shard's
service address; the dispatcher's flow table never changes); everyone
else must not notice.  The run reports request latency percentiles for
the windows before, during and after the storm, fleet goodput, and a
per-shard attribution of every session so the tests can assert *only*
the killed shards' sessions experienced the failover.

Everything is a pure function of ``seed`` — same seed, byte-identical
BENCH artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.fleet import ShardedFleet
from repro.harness.cells import CellResult, attach_incident, run_and_settle
from repro.harness.invariants import InvariantChecker
from repro.harness.metrics import Stats, latency_windows
from repro.harness.report import Report, Table
from repro.workload.distributions import Distribution, Exponential, Fixed
from repro.workload.generator import ClosedLoopWorkload, WorkloadStats

#: Post-storm settle window before latencies count as "after" (covers
#: detection + takeover + gratuitous-ARP application + the client's
#: retransmission backoff — the stalled in-flight requests complete a
#: few hundred ms after the kill).
RECOVERY_WINDOW = 0.500

SETTLE = 1.0  # drains straggling close handshakes and detector echoes


class FleetCell:
    """A closed-loop workload through a checked :class:`ShardedFleet`
    (built from ``fleet_options``): the fleet's
    :class:`~repro.harness.cells.BridgeCell`."""

    def __init__(
        self,
        sessions: int,
        ramp: float,
        hold_for: float,
        reply_sizes: Distribution,
        think_times: Distribution,
        **fleet_options,
    ):
        self.fleet = fleet = ShardedFleet(**fleet_options)
        self.checker = fleet.attach_invariant_checker()
        fleet.run_reply_service(backlog=max(64, sessions))
        fleet.start_detectors()
        self.workload = ClosedLoopWorkload(
            fleet.clients, fleet.virtual_ip, fleet.service_port, fleet.rng,
            sessions=sessions, reply_sizes=reply_sizes, think_times=think_times,
            ramp=ramp, hold_for=hold_for, spans=fleet.spans,
        )

    def start(self) -> None:
        self.workload.start()

    def finish(self, result: CellResult, until: float, settle: float) -> None:
        workload = self.workload
        run_and_settle(self.fleet.sim, lambda: workload.complete, result,
                       self.checker, until, settle, "workload did not complete")
        result.delivered = workload.stats.reply_bytes


@dataclass
class CapacityResult(CellResult):
    """One capacity run: the shared verdicts plus what the storm did."""

    fleet: Optional[ShardedFleet] = field(default=None, repr=False)
    workload: Optional[ClosedLoopWorkload] = field(default=None, repr=False)
    checker: Optional[InvariantChecker] = field(default=None, repr=False)
    storm_at: float = 0.0
    storm_fraction: float = 0.0
    killed: List[str] = field(default_factory=list)
    concurrent_at_storm: int = 0
    #: session id -> the shard the dispatcher pinned it to.
    session_shards: Dict[int, str] = field(default_factory=dict)

    @property
    def stats(self) -> WorkloadStats:
        return self.workload.stats

    def shard_populations(self) -> Dict[str, int]:
        """How many sessions the dispatcher pinned to each shard."""
        counts = {shard.shard_id: 0 for shard in self.fleet.shards}
        for shard_id in self.session_shards.values():
            counts[shard_id] += 1
        return counts

    def latency_windows(self) -> Dict[str, Stats]:
        """Pre / during / post-storm request-latency summaries."""
        return latency_windows(
            self.workload.stats, self.storm_at, RECOVERY_WINDOW,
            self.duration,
            labels=("pre_storm", "during_storm", "post_storm"),
        )

    def goodput_bytes_per_s(self) -> float:
        if self.duration <= 0:
            return 0.0
        return self.workload.stats.reply_bytes / self.duration

    def connections_per_s(self) -> float:
        if self.duration <= 0:
            return 0.0
        return self.workload.stats.sessions_completed / self.duration

    def misplaced_failures(self) -> List[str]:
        """Failed sessions whose shard was NOT killed (must be empty)."""
        killed = set(self.killed)
        out = []
        for failure in self.workload.stats.failures:
            session_id = int(failure.split(":", 1)[0].removeprefix("session"))
            shard = self.session_shards.get(session_id)
            if shard not in killed:
                out.append(f"{failure} (shard {shard})")
        return out


def run_capacity(
    shards: int = 8,
    clients: int = 4,
    sessions: int = 256,
    seed: int = 0,
    ramp: float = 0.5,
    hold_for: float = 1.6,
    storm_at: float = 0.9,
    storm_fraction: float = 0.25,
    reply_sizes: Optional[Distribution] = None,
    enable_metrics: bool = False,
    span_sample_rate: float = 0.0,
) -> CapacityResult:
    """One seeded capacity run through a failover storm."""
    if not 0 < storm_at:
        raise ValueError(f"storm_at must be > 0, got {storm_at}")
    cell = FleetCell(
        sessions, ramp, hold_for, reply_sizes or Fixed(512),
        Exponential(0.150),  # think times
        shards=shards, clients=clients, seed=seed,
        enable_metrics=enable_metrics, span_sample_rate=span_sample_rate,
    )
    fleet, workload = cell.fleet, cell.workload
    result = CapacityResult(
        spec=f"storm {storm_fraction:.0%} of {shards} shards seed={seed}",
        fleet=fleet, workload=workload, checker=cell.checker,
        storm_at=storm_at, storm_fraction=storm_fraction,
    )
    cell.start()

    def unleash() -> None:
        result.concurrent_at_storm = workload.stats.open_now
        result.killed = fleet.storm(fraction=storm_fraction)

    fleet.sim.call_at(storm_at, unleash)
    cell.finish(result, storm_at + hold_for + 30.0, SETTLE)
    result.failed_over = bool(fleet.failed_over_shards())
    if fleet.spans.enabled:
        # Flush spans the run cut off (failed sessions, open takeovers)
        # so the export sees every sampled trace.
        fleet.spans.abandon_open(fleet.sim.now)

    for session_id, (client_ip, port) in sorted(workload.stats.session_flows.items()):
        shard = fleet.service.shard_of(client_ip, port)
        assert shard is not None
        result.session_shards[session_id] = shard
    attach_incident(result, fleet.tracer)
    return result


def capacity_bench_rows(result: CapacityResult) -> Dict[str, object]:
    """The BENCH-artifact payload (params / results / stats) for one run.

    Deterministic given the run's seed: no wall-clock, no unsorted
    iteration; ``write_bench_artifact`` sorts keys on serialisation.
    """
    stats = result.stats
    windows = result.latency_windows()
    results: List[Dict[str, object]] = [
        {
            "label": "fleet",
            "metrics": {
                "sessions_started": stats.sessions_started,
                "sessions_completed": stats.sessions_completed,
                "sessions_failed": stats.sessions_failed,
                "requests_completed": stats.requests_completed,
                "corrupt_replies": stats.corrupt_replies,
                "peak_concurrent": stats.peak_open,
                "concurrent_at_storm": result.concurrent_at_storm,
                "connections_per_s": round(result.connections_per_s(), 3),
                "goodput_bytes_per_s": round(result.goodput_bytes_per_s(), 3),
                "shards_killed": len(result.killed),
                "misplaced_failures": len(result.misplaced_failures()),
                "invariants_ok": int(result.ok),
            },
        }
    ]
    for label, window in windows.items():
        results.append(
            {
                "label": label,
                "metrics": {
                    "count": window.count,
                    "median_ms": round(window.median * 1e3, 3),
                    "p99_ms": round(window.p99 * 1e3, 3),
                    "max_ms": round(window.maximum * 1e3, 3),
                },
            }
        )
    populations = result.shard_populations()
    for shard_id in sorted(populations):
        results.append(
            {
                "label": f"shard {shard_id}",
                "metrics": {
                    "sessions": populations[shard_id],
                    "killed": int(shard_id in result.killed),
                },
            }
        )
    params = {
        "shards": len(result.fleet.shards),
        "clients": len(result.fleet.clients),
        "sessions": stats.sessions_started,
        "seed": result.fleet.seed,
        "storm_at": result.storm_at,
        "killed": ",".join(result.killed),
        "recovery_window": RECOVERY_WINDOW,
    }
    stats_block = {label: window.as_dict() for label, window in windows.items()}
    return {"params": params, "results": results, "stats": stats_block}


def capacity_report(result: CapacityResult) -> Report:
    """E12: the latency-window and placement tables, the verdict lines and
    the ``capacity_bench_rows`` payload of one run (``raw`` is *result*)."""
    stats = result.stats
    populations = result.shard_populations()
    misplaced = result.misplaced_failures()
    notes = [
        "",
        f"sessions: {stats.sessions_completed}/{stats.sessions_started} completed,"
        f" {stats.sessions_failed} failed, {stats.corrupt_replies} corrupt replies",
        f"concurrent at storm: {result.concurrent_at_storm}"
        f" (peak {stats.peak_open})",
        f"goodput: {result.goodput_bytes_per_s()/1e3:.0f} KB/s,"
        f" {result.connections_per_s():.1f} conns/s",
        f"failures outside killed shards: {len(misplaced)}",
        *(f"  {line}" for line in misplaced),
    ]
    notes.append(result.checker.report())
    return Report(
        "cluster_capacity", **capacity_bench_rows(result),
        tables=[
            Table(
                f"E12: {len(result.fleet.shards)}-shard capacity through a "
                f"{result.storm_fraction:.0%} primary storm",
                ["window", "requests", "median", "p99"],
                [(label, w.count, f"{w.median*1e3:.2f}ms", f"{w.p99*1e3:.2f}ms")
                 for label, w in result.latency_windows().items()],
            ),
            Table(
                "placement", ["shard", "sessions", "killed", "failed over"],
                [(s.shard_id, populations[s.shard_id],
                  "X" if s.shard_id in result.killed else "",
                  "X" if s.pair.failed_over else "")
                 for s in result.fleet.shards],
            ),
        ],
        notes=notes,
        raw=result,
    )


def add_cell_flags(parser) -> None:
    """The capacity cell's knobs: ``repro cluster`` and the ``obs`` views
    over the same cell (fleet rollup, causal timeline) all take these."""
    parser.add_argument("--shards", type=int, default=None,
                        help="shard count (default 8; 4 at quick scale)")
    parser.add_argument("--clients", type=int, default=4,
                        help="client-host count")
    parser.add_argument("--sessions", type=int, default=None,
                        help="closed-loop session count (default 256;"
                             " 64 at quick scale)")
    parser.add_argument("--seed", type=int, default=0, help="fleet seed")
    parser.add_argument("--storm-fraction", type=float, default=0.25,
                        help="fraction of primaries killed by the storm")
    parser.add_argument("--storm-at", type=float, default=0.9,
                        help="simulated time (s) of the storm")
    parser.add_argument("--ramp", type=float, default=0.5,
                        help="session arrival ramp window (s)")
    parser.add_argument("--hold", type=float, default=1.6,
                        help="per-session connection hold time (s)")


def run_cell_from_flags(args, quick: bool, **observers) -> CapacityResult:
    """The one place ``add_cell_flags``' namespace becomes a run;
    ``observers`` are ``run_capacity``'s metrics / span switches."""
    return run_capacity(
        shards=args.shards if args.shards is not None else (4 if quick else 8),
        clients=args.clients,
        sessions=(args.sessions if args.sessions is not None
                  else 64 if quick else 256),
        seed=args.seed,
        ramp=args.ramp,
        hold_for=args.hold,
        storm_at=args.storm_at,
        storm_fraction=args.storm_fraction,
        **observers,
    )


def cluster_command(parser) -> None:
    """E12  sharded fleet capacity through a failover storm"""
    add_cell_flags(parser)
    parser.set_defaults(
        run=lambda args: capacity_report(run_cell_from_flags(args, args.quick)))
