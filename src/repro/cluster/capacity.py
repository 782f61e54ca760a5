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

from typing import Dict, List, Optional

from repro.cluster.fleet import ShardedFleet
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


class CapacityResult:
    """Everything one capacity run measured."""

    def __init__(
        self,
        fleet: ShardedFleet,
        workload: ClosedLoopWorkload,
        checker: Optional[InvariantChecker],
        storm_at: float,
        storm_fraction: float,
        killed: List[str],
        concurrent_at_storm: int,
        finished_at: float,
    ):
        self.fleet = fleet
        self.workload = workload
        self.checker = checker
        self.storm_at = storm_at
        self.storm_fraction = storm_fraction
        self.killed = killed
        self.concurrent_at_storm = concurrent_at_storm
        self.finished_at = finished_at
        stats = workload.stats
        self.session_shards: Dict[int, str] = {}
        for session_id, (client_ip, port) in sorted(stats.session_flows.items()):
            shard = fleet.service.shard_of(client_ip, port)
            assert shard is not None
            self.session_shards[session_id] = shard

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
            self.finished_at,
            labels=("pre_storm", "during_storm", "post_storm"),
        )

    def goodput_bytes_per_s(self) -> float:
        if self.finished_at <= 0:
            return 0.0
        return self.workload.stats.reply_bytes / self.finished_at

    def connections_per_s(self) -> float:
        if self.finished_at <= 0:
            return 0.0
        return self.workload.stats.sessions_completed / self.finished_at

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

    def invariants_ok(self) -> bool:
        return self.checker is None or self.checker.ok


def run_capacity(
    shards: int = 8,
    clients: int = 4,
    sessions: int = 256,
    seed: int = 0,
    service_port: int = 8000,
    ramp: float = 0.5,
    hold_for: float = 1.6,
    storm_at: float = 0.9,
    storm_fraction: float = 0.25,
    reply_sizes: Optional[Distribution] = None,
    think_times: Optional[Distribution] = None,
    detector_interval: float = 0.010,
    detector_timeout: float = 0.050,
    check_invariants: bool = True,
    enable_metrics: bool = False,
    run_until: Optional[float] = None,
    span_sample_rate: float = 0.0,
    max_spans: Optional[int] = None,
) -> CapacityResult:
    """One seeded capacity run through a failover storm."""
    if not 0 < storm_at:
        raise ValueError(f"storm_at must be > 0, got {storm_at}")
    fleet = ShardedFleet(
        shards=shards,
        clients=clients,
        seed=seed,
        service_port=service_port,
        detector_interval=detector_interval,
        detector_timeout=detector_timeout,
        enable_metrics=enable_metrics,
        span_sample_rate=span_sample_rate,
        max_spans=max_spans,
    )
    checker = fleet.attach_invariant_checker() if check_invariants else None
    fleet.run_reply_service(backlog=max(64, sessions))
    fleet.start_detectors()

    workload = ClosedLoopWorkload(
        fleet.clients,
        fleet.virtual_ip,
        service_port,
        fleet.rng,
        sessions=sessions,
        reply_sizes=reply_sizes or Fixed(512),
        think_times=think_times or Exponential(0.150),
        ramp=ramp,
        hold_for=hold_for,
        spans=fleet.spans,
    )
    workload.start()

    storm_state = {"killed": [], "concurrent": 0}

    def unleash() -> None:
        storm_state["concurrent"] = workload.stats.open_now
        storm_state["killed"] = fleet.storm(fraction=storm_fraction)

    fleet.sim.call_at(storm_at, unleash)

    deadline = run_until if run_until is not None else storm_at + hold_for + 30.0
    fleet.sim.run_until(lambda: workload.complete, timeout=deadline)
    finished_at = fleet.sim.now
    # Let straggling close handshakes and detector echoes drain.
    fleet.sim.run(until=finished_at + 1.0)
    if fleet.spans.enabled:
        # Flush spans the run cut off (failed sessions, open takeovers)
        # so the export sees every sampled trace.
        fleet.spans.abandon_open(fleet.sim.now)

    return CapacityResult(
        fleet=fleet,
        workload=workload,
        checker=checker,
        storm_at=storm_at,
        storm_fraction=storm_fraction,
        killed=list(storm_state["killed"]),
        concurrent_at_storm=int(storm_state["concurrent"]),
        finished_at=finished_at,
    )


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
                "invariants_ok": int(result.invariants_ok()),
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
    if result.checker is not None:
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
