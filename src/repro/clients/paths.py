"""E14: one seeded workload, four recovery paths (EXPERIMENTS.md §E14).

The paper recovers a failed server *below* the client: the secondary
takes over the primary's IP with synchronized TCBs and established
connections simply continue.  Production mostly recovers *above* the
client instead.  This experiment runs the **same seeded workload** —
identical per-session request-size and think-time streams — through
four recovery paths and measures what each client actually saw:

* ``bridge`` — the paper's transparent failover
  (:class:`ReplicatedServerPair`): connections survive, in-flight
  requests stall only for detection + takeover + one retransmit.
* ``vip``    — bare IP takeover without TCB replication: the standby
  grabs the VIP and answers retransmissions with RSTs; pools
  invalidate and reconnect.
* ``proxy``  — an L4 proxy (PCR-style weights 100/10) health-checks the
  backends and flips routing via its runbook; severed relays surface to
  pools as resets.
* ``dns``    — the GitHub-incident path: distinct server addresses, a
  Route 53-style health-checked record flips the zone, and recovery
  waits on every resolver cache's TTL.  Clients in the TTL-ignoring
  misbehavior mode keep dialing the corpse until their retry budgets
  die — the only path that *fails* requests.

Per-path output: the per-request latency distribution in pre/during/
post windows, the client-visible blackout (last success before the
crash to first success after it), failed-request counts, and pool/DNS
counters.  ``client_paths_bench_rows`` folds it into
``BENCH_client_paths.json``; byte-identical replay is part of the
artifact's contract (CI runs the cell twice and ``cmp``'s them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Tuple

from repro.apps.request_reply import pattern_bytes, reply_server
from repro.clients.dns import AuthoritativeZone, HealthCheckedRecord, ResolverCache
from repro.clients.health import HealthMonitor
from repro.clients.pool import (
    ConnectionPool, PoolRequestFailed, RequestLedger, constant_resolver,
)
from repro.clients.proxy import L4Proxy, PRIMARY_WEIGHT, STANDBY_WEIGHT
from repro.harness.cells import CellResult, attach_incident, run_and_settle
from repro.harness.invariants import InvariantChecker
from repro.harness.metrics import Stats, latency_windows
from repro.harness.report import Report, Table
from repro.harness.topology import (
    CLIENT_ARP_DELAY, CLIENT_PROFILE, CLIENT_TIER_MAC_BASE, PRIMARY_IP,
    SECONDARY_IP, SERVER_PROFILE, Lan,
)
from repro.net.addresses import Ipv4Address
from repro.net.host import Host

#: The recovery paths E14 compares, in publication order.  The ISSUE's
#: three required paths are bridge/vip/dns; proxy rides along because
#: the PCR repo's production stack is proxy-shaped.
PATHS: Tuple[str, ...] = ("bridge", "vip", "proxy", "dns")

SERVICE_NAME = "svc.shop.example"
SERVICE_PORT = 8000

MONITOR_IP = Ipv4Address("10.0.0.9")
PROXY_IP = Ipv4Address("10.0.0.10")

#: The cell every path shares: crash time, mean think time, the pools'
#: size, probe interval and retry policy, the DNS TTL and how many clients
#: (the first ones) ignore it.
CRASH_AT = 0.35
THINK_MEAN = 0.080
POOL_SIZE = 2
HEALTH_INTERVAL = 0.500
RETRY_BUDGET = 6
ATTEMPT_TIMEOUT = 0.250
BACKOFF_BASE = 0.050
TTL = 1.0
TTL_IGNORING_CLIENTS = 1
SETTLE = 0.5  # simulated seconds run after the last session ends

#: Trace categories that mark recovery milestones, for the timeline.
TIMELINE_CATEGORIES = (
    "detector.failure",
    "takeover.complete",
    "clients.health.down",
    "clients.dns.flip",
    "clients.proxy.failover",
    "clients.vip.takeover",
)

class PathStats:
    """Per-request samples and failures for one path's run."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float, int]] = []  # (t, latency, session)
        self.failures: List[Tuple[float, int, str]] = []
        self.corrupt_replies = 0
        self.sessions_started = 0
        self.sessions_completed = 0
        self.sessions_failed = 0

    def record(self, now: float, latency: float, session: int) -> None:
        self.samples.append((now, latency, session))

    def record_failure(self, now: float, session: int, reason: str) -> None:
        self.failures.append((now, session, reason))

    def latencies_between(self, start: float, end: float) -> List[float]:
        return [lat for t, lat, _ in self.samples if start <= t < end]

    @property
    def requests_completed(self) -> int:
        return len(self.samples)

    @property
    def requests_failed(self) -> int:
        return len(self.failures)

    def blackout(self, crash_at: float) -> Optional[float]:
        """Last success before the crash → first success at/after it."""
        before = [t for t, _, _ in self.samples if t < crash_at]
        after = [t for t, _, _ in self.samples if t >= crash_at]
        if not before or not after:
            return None
        return min(after) - max(before)


@dataclass
class PathResult(CellResult):
    """One recovery path's run (``spec`` is the path): the shared verdicts
    plus what its clients saw."""

    stats: PathStats = field(default_factory=PathStats)
    ledger: RequestLedger = field(default_factory=RequestLedger)
    checker: Optional[InvariantChecker] = field(default=None, repr=False)
    pools: List[ConnectionPool] = field(default_factory=list, repr=False)
    crash_at: float = CRASH_AT
    recovery_window: float = 0.0
    extras: Dict[str, object] = field(default_factory=dict, repr=False)

    def counts(self) -> str:
        stats = self.stats
        return f"requests={stats.requests_completed} failed={stats.requests_failed}"

    def latency_windows(self) -> Dict[str, Stats]:
        return latency_windows(
            self.stats, self.crash_at, self.recovery_window, self.duration,
            labels=("pre", "during", "post"),
        )

    def timeline(self) -> List[Tuple[float, str, str]]:
        """First occurrence of each recovery milestone, time-ordered."""
        seen: Dict[str, Tuple[float, str]] = {}
        for category in TIMELINE_CATEGORIES:
            for record in self.tracer.select(category=category):
                if category not in seen:
                    seen[category] = (record.time, record.node)
        return sorted(
            (time, category, node)
            for category, (time, node) in seen.items()
        )

    def pool_counters(self) -> Dict[str, int]:
        totals = {"dials": 0, "reuses": 0, "invalidated": 0, "evicted": 0,
                  "retries": 0, "timeouts": 0}
        for pool in self.pools:
            totals["dials"] += pool.dials
            totals["reuses"] += pool.reuses
            totals["invalidated"] += pool.invalidated
            totals["evicted"] += pool.evicted
            totals["retries"] += pool.retries
            totals["timeouts"] += pool.timeouts
        return totals


class ClientWorkload:
    """Closed-loop sessions round-robinned over the per-client pools.

    Request sizes and think times come from per-session named streams,
    so every path replays the identical workload regardless of how its
    recovery machinery interleaves events.  The workload owns its
    :class:`PathStats` and completion counter.
    """

    def __init__(self, lan: Lan, pools: List[ConnectionPool],
                 sessions: int, stop_at: float):
        self.lan = lan
        self.pools = pools
        self.sessions = sessions
        self.stop_at = stop_at
        self.stats = PathStats()
        self.finished = 0

    @property
    def done(self) -> bool:
        return self.finished >= self.sessions

    def start(self) -> None:
        for i in range(self.sessions):
            pool = self.pools[i % len(self.pools)]
            rng = self.lan.rng.stream(f"clients.workload.session{i}")
            start_at = 0.010 + 0.005 * i
            self.stats.sessions_started += 1
            self.lan.sim.call_at(
                start_at,
                pool.client.spawn,
                self._session(pool, i, rng),
                f"session{i}",
            )

    def _session(self, pool: ConnectionPool, session_id: int,
                 rng) -> Generator:
        failed = False
        while self.lan.sim.now < self.stop_at:
            size = 64 + int(rng.random() * 960)
            started = self.lan.sim.now
            try:
                reply = yield from pool.request(size, label=f"s{session_id}")
            except (PoolRequestFailed, OSError) as exc:
                self.stats.record_failure(
                    self.lan.sim.now, session_id, type(exc).__name__)
                failed = True
                break
            if reply != pattern_bytes(size, salt=size & 0xFF):
                self.stats.corrupt_replies += 1
            self.stats.record(
                self.lan.sim.now, self.lan.sim.now - started, session_id)
            yield THINK_MEAN * -math.log(1.0 - rng.random())
        if failed:
            self.stats.sessions_failed += 1
        else:
            self.stats.sessions_completed += 1
        self.finished += 1


def run_client_path(
    path: str,
    seed: int = 0,
    *,
    clients: int = 3,
    sessions: int = 12,
    recovery_window: float = 2.0,
    hold_after: float = 0.8,
) -> PathResult:
    """Run one recovery path's cell and return its measurements."""
    if path not in PATHS:
        raise ValueError(f"unknown path {path!r}; expected one of {PATHS}")
    lan = Lan(
        seed, record_traces=True, max_trace_records=200_000,
        mac_base=CLIENT_TIER_MAC_BASE,
    )
    client_hosts = [
        lan.add_host(
            f"client{i}", 50 + i, Ipv4Address(f"10.0.0.{50 + i}"),
            CLIENT_PROFILE, gratuitous_apply_delay=CLIENT_ARP_DELAY,
            conn_defaults={"min_rto": 0.05},
        )
        for i in range(clients)
    ]

    def plain_servers(*extra: Tuple[str, int, Ipv4Address]) -> List[Host]:
        """The unreplicated paths' boxes: primary and standby, each running
        the reply server, plus the path's own middlebox."""
        boxes = (("primary", 2, PRIMARY_IP), ("standby", 3, SECONDARY_IP)) + extra
        hosts = [
            lan.add_host(name, index, ip, SERVER_PROFILE)
            for name, index, ip in boxes
        ]
        lan.warm_arp()
        for server in hosts[:2]:
            server.spawn(
                reply_server(server, SERVICE_PORT, max_requests=None), "reply")
        return hosts

    ledger = RequestLedger()
    extras: Dict[str, object] = {}
    stop_at = CRASH_AT + recovery_window + hold_after

    # -- servers and the recovery machinery ------------------------------
    # Every detector below (pair, VIP monitor, proxy, DNS health check)
    # runs at its default 10 ms heartbeat and 50 ms timeout.
    crash: Callable[[], None]
    resolvers: List[Callable[[], Generator]] = []
    if path == "bridge":
        pair = lan.add_pair((SERVICE_PORT,), SERVER_PROFILE)
        lan.warm_arp()
        pair.run_app(
            lambda host: reply_server(host, SERVICE_PORT, max_requests=None),
            name="reply",
        )
        pair.start_detectors()
        service_ip = pair.service_ip
        crash = pair.crash_primary
        resolvers = [constant_resolver(service_ip) for _ in range(clients)]
        extras["pair"] = pair
    elif path == "vip":
        primary, standby = plain_servers()

        def take_vip() -> None:
            standby.eth_interface.add_address(PRIMARY_IP)
            standby.eth_interface.arp.announce(PRIMARY_IP)
            lan.tracer.emit(
                lan.sim.now, "clients.vip.takeover", standby.name,
                ip=PRIMARY_IP.__str__,
            )

        monitor = HealthMonitor(standby, primary, take_vip)
        monitor.start()
        crash = primary.crash
        resolvers = [constant_resolver(PRIMARY_IP) for _ in range(clients)]
        extras["monitor"] = monitor
    elif path == "proxy":
        primary, standby, frontend = plain_servers(("proxy", 10, PROXY_IP))
        proxy = L4Proxy(frontend, SERVICE_PORT, lan.rng.stream("clients.proxy"))
        proxy.add_backend("primary", primary, SERVICE_PORT,
                          weight=PRIMARY_WEIGHT)
        proxy.add_backend("standby", standby, SERVICE_PORT,
                          weight=STANDBY_WEIGHT)
        proxy.start()
        crash = primary.crash
        resolvers = [constant_resolver(PROXY_IP) for _ in range(clients)]
        extras["proxy"] = proxy
    else:  # dns
        primary, standby, monitor_host = plain_servers(
            ("dns-monitor", 9, MONITOR_IP))
        zone = AuthoritativeZone(lan.sim, tracer=lan.tracer)
        record = HealthCheckedRecord(
            zone, SERVICE_NAME, PRIMARY_IP, SECONDARY_IP, TTL,
            monitor_host, primary,
        )
        record.start()
        caches: List[ResolverCache] = []
        for i, client in enumerate(client_hosts):
            cache = ResolverCache(
                client, zone, respect_ttl=(i >= TTL_IGNORING_CLIENTS))
            caches.append(cache)
            resolvers.append(cache.resolver_for(SERVICE_NAME))
        crash = primary.crash
        extras["zone"] = zone
        extras["record"] = record
        extras["caches"] = caches

    # -- pools and workload ----------------------------------------------
    pools: List[ConnectionPool] = []
    for i, client in enumerate(client_hosts):
        pool = ConnectionPool(
            client, SERVICE_PORT, resolvers[i],
            lan.rng.stream(f"clients.pool.client{i}"),
            max_size=POOL_SIZE, retry_budget=RETRY_BUDGET,
            backoff_base=BACKOFF_BASE, attempt_timeout=ATTEMPT_TIMEOUT,
            health_interval=HEALTH_INTERVAL, ledger=ledger,
            name=f"pool{i}",
        )
        pool.start_health_probes()
        pools.append(pool)
    workload = ClientWorkload(lan, pools, sessions, stop_at)
    workload.start()

    # -- run ---------------------------------------------------------------
    lan.sim.call_at(CRASH_AT, crash)
    checker = InvariantChecker(lan.tracer)
    result = PathResult(
        spec=path, stats=workload.stats, ledger=ledger, checker=checker,
        pools=pools, recovery_window=recovery_window, extras=extras,
    )
    deadline = stop_at + RETRY_BUDGET * (ATTEMPT_TIMEOUT + 2 * BACKOFF_BASE) + 5.0
    run_and_settle(lan.sim, lambda: workload.done, result, checker,
                   deadline, SETTLE, "sessions did not finish")
    checker.check_client_outcomes(ledger, now=result.duration)
    attach_incident(result, lan.tracer)
    return result


def run_client_paths(
    seed: int = 0,
    paths: Tuple[str, ...] = PATHS,
    **cell,
) -> Dict[str, PathResult]:
    """Run every requested path from the same seed; dict in PATHS order."""
    results: Dict[str, PathResult] = {}
    for path in PATHS:
        if path in paths:
            results[path] = run_client_path(path, seed, **cell)
    return results


def client_paths_bench_rows(
    results: Dict[str, PathResult], seed: int, **cell
) -> Dict[str, object]:
    """The BENCH-artifact payload (params / results / stats) for one run."""
    rows: List[Dict[str, object]] = []
    stats_block: Dict[str, Dict[str, float]] = {}
    p99_during: Dict[str, float] = {}
    for path, result in results.items():
        windows = result.latency_windows()
        counters = result.pool_counters()
        blackout = result.stats.blackout(result.crash_at)
        p99_during[path] = windows["during"].p99
        metrics: Dict[str, object] = {
            "requests_completed": result.stats.requests_completed,
            "requests_failed": result.stats.requests_failed,
            "sessions_completed": result.stats.sessions_completed,
            "sessions_failed": result.stats.sessions_failed,
            "corrupt_replies": result.stats.corrupt_replies,
            "blackout_ms": round(blackout * 1e3, 3) if blackout is not None else -1.0,
            "during_p50_ms": round(windows["during"].median * 1e3, 3),
            "during_p99_ms": round(windows["during"].p99 * 1e3, 3),
            "during_max_ms": round(windows["during"].maximum * 1e3, 3),
            "pool_dials": counters["dials"],
            "pool_invalidated": counters["invalidated"],
            "pool_evicted": counters["evicted"],
            "pool_retries": counters["retries"],
            "pool_timeouts": counters["timeouts"],
            "outcomes_ok": int(result.ok),
        }
        if path == "dns":
            caches = result.extras.get("caches", [])
            metrics["dns_stale_hits"] = sum(c.stale_hits for c in caches)
            metrics["dns_authoritative_queries"] = sum(
                c.authoritative_queries for c in caches)
        rows.append({"label": path, "metrics": metrics})
        for label, window in windows.items():
            stats_block[f"{path}.{label}"] = window.as_dict()
    if "bridge" in p99_during and "dns" in p99_during and p99_during["bridge"] > 0:
        rows.append({
            "label": "clients:ratio",
            "metrics": {
                "dns_over_bridge_p99": round(
                    p99_during["dns"] / p99_during["bridge"], 3),
            },
        })
    params: Dict[str, object] = {"seed": seed, "paths": sorted(results)}
    params.update({key: cell[key] for key in sorted(cell)})
    return {"params": params, "results": rows, "stats": stats_block}


def client_paths_report(seed: int = 0, clients: int = 3, sessions: int = 12) -> Report:
    """E14: the downtime table, each path's recovery timeline, the
    client-outcome verdict and the ``client_paths_bench_rows`` payload of
    one seeded comparison.  ``raw[path]`` is that path's :class:`PathResult`."""
    cell = {"clients": clients, "sessions": sessions}
    results = run_client_paths(seed=seed, **cell)
    table_rows = []
    for path, result in results.items():
        during = result.latency_windows()["during"]
        blackout = result.stats.blackout(result.crash_at)
        table_rows.append((
            path,
            result.stats.requests_completed,
            result.stats.requests_failed,
            f"{during.median*1e3:.2f}ms",
            f"{during.p99*1e3:.2f}ms",
            f"{during.maximum*1e3:.2f}ms",
            f"{blackout*1e3:.1f}ms" if blackout is not None else "-",
        ))
    notes = ["", "recovery timelines (first occurrence per milestone):"]
    for path, result in results.items():
        line = ", ".join(
            f"{category}@{time*1e3:.1f}ms"
            for time, category, _ in result.timeline()
        )
        notes.append(f"  {path:>7}: {line or '(no milestones recorded)'}")
    notes.extend(
        f"  {path}: {result.checker.report()}"
        for path, result in results.items() if not result.ok
    )
    if all(result.ok for result in results.values()):
        audited = sum(result.ledger.total for result in results.values())
        notes.append(f"client-outcome invariant held on every path"
                     f" ({audited} requests audited)")
    return Report(
        "client_paths", **client_paths_bench_rows(results, seed=seed, **cell),
        tables=[Table(
            f"E14: client-visible downtime by recovery path "
            f"(seed={seed}, sessions={sessions})",
            ["path", "ok", "failed", "p50", "p99", "max", "blackout"],
            table_rows,
        )],
        notes=notes,
        raw=results,
    )


def clients_command(parser) -> None:
    """E14  one seeded workload, four client-tier recovery paths"""
    # E14's flagship cell is deliberately small (EXPERIMENTS.md §E14).
    parser.add_argument("--clients", type=int, default=3,
                        help="client-host count")
    parser.add_argument("--sessions", type=int, default=12,
                        help="pooled session count")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.set_defaults(run=lambda args: client_paths_report(
        seed=args.seed, clients=args.clients, sessions=args.sessions))
