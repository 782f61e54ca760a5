"""Closed- and open-loop workload drivers.

Both drivers speak the :mod:`repro.apps.request_reply` protocol (4-byte
size header, deterministic patterned reply), verify every reply byte
against :func:`repro.apps.bulk.pattern_bytes`, and record a
``(time, latency)`` sample per exchange — the raw material for the
capacity benchmark's pre/during/post-storm percentiles.

Determinism contract: the arrival process draws from one named stream
(``"workload.arrivals"`` by default) and each session forks its own
stream at spawn time, so per-session draws are independent of event
interleaving — two runs with the same seed issue byte-identical request
sequences even though TCP timing differs between shards.
"""

from __future__ import annotations

import struct
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.apps.bulk import pattern_bytes
from repro.net.addresses import Ipv4Address
from repro.net.host import Host
from repro.obs.spans import NULL_SPANS, SpanTracer, flow_key
from repro.sim.rng import RngRegistry
from repro.tcp.socket_api import SimSocket
from repro.workload.distributions import Distribution, Exponential, Fixed

#: (completion sim-time, latency seconds, session id)
LatencySample = Tuple[float, float, int]


class WorkloadStats:
    """Aggregated outcome of one workload run."""

    def __init__(self) -> None:
        self.sessions_started = 0
        self.sessions_completed = 0
        self.sessions_failed = 0
        self.requests_completed = 0
        self.corrupt_replies = 0
        self.reply_bytes = 0
        self.latencies: List[LatencySample] = []
        #: session id -> (client ip, local port): the flow identity the
        #: dispatcher steers on, for per-shard attribution after a run.
        self.session_flows: Dict[int, Tuple[Ipv4Address, int]] = {}
        self.open_now = 0
        self.peak_open = 0
        self.failures: List[str] = []

    def record_open(self) -> None:
        self.open_now += 1
        if self.open_now > self.peak_open:
            self.peak_open = self.open_now

    def record_close(self) -> None:
        self.open_now -= 1

    def latencies_between(self, start: float, end: float) -> List[float]:
        """Latency values for exchanges completing in ``[start, end)``."""
        return [lat for t, lat, _sid in self.latencies if start <= t < end]

    def __repr__(self) -> str:
        return (
            f"WorkloadStats(done={self.sessions_completed}"
            f"/{self.sessions_started}, failed={self.sessions_failed},"
            f" requests={self.requests_completed},"
            f" corrupt={self.corrupt_replies}, peak_open={self.peak_open})"
        )


class ClosedLoopWorkload:
    """A fixed population of think-time sessions over long-lived connections.

    Session ``i`` connects to ``service_ip:port`` from client host
    ``clients[i % len(clients)]``, then loops request → patterned reply →
    exponential think until ``hold_for`` simulated seconds have passed
    since its own start, closing cleanly afterwards.  Arrivals ramp in
    with exponential interarrivals of mean ``ramp / sessions`` so the
    population builds over roughly the ramp window instead of a thundering
    herd of simultaneous SYNs.
    """

    def __init__(
        self,
        clients: Sequence[Host],
        service_ip: Ipv4Address,
        port: int,
        rng: RngRegistry,
        sessions: int = 64,
        reply_sizes: Optional[Distribution] = None,
        think_times: Optional[Distribution] = None,
        ramp: float = 0.5,
        hold_for: float = 1.0,
        spans: Optional[SpanTracer] = None,
    ):
        if not clients:
            raise ValueError("need at least one client host")
        if sessions <= 0:
            raise ValueError(f"sessions must be > 0, got {sessions}")
        self.clients = list(clients)
        self.service_ip = service_ip
        self.port = port
        self.sessions = sessions
        self.reply_sizes = reply_sizes or Fixed(1024)
        self.think_times = think_times or Exponential(0.050)
        self.ramp = ramp
        self.hold_for = hold_for
        self.spans = spans or NULL_SPANS
        self.stats = WorkloadStats()
        self._arrivals = rng.stream("workload.arrivals")
        self._session_rngs = [
            rng.stream(f"workload.arrivals.session{i}") for i in range(sessions)
        ]
        self._started = False

    def start(self) -> None:
        """Spawn the arrival process (call once, before running the sim)."""
        if self._started:
            raise RuntimeError("workload already started")
        self._started = True
        self.clients[0].spawn(self._spawner(), "workload.spawner")

    def _spawner(self) -> Generator:
        interarrival = Exponential(max(self.ramp, 1e-9) / self.sessions)
        for i in range(self.sessions):
            client = self.clients[i % len(self.clients)]
            client.spawn(self._session(client, i), f"workload.session{i}")
            gap = interarrival.sample(self._arrivals)
            if gap > 0:
                yield gap

    def _session(self, client: Host, session_id: int) -> Generator:
        rng = self._session_rngs[session_id]
        stats = self.stats
        spans = self.spans
        stats.sessions_started += 1
        # Trace birth: the head-based sampling decision for this whole
        # session's tree happens here, before the connection exists.
        ctx = spans.trace_root(
            "workload.session", client.sim.now, client.name,
            session=session_id,
        )
        sock = SimSocket.connect(client, self.service_ip, self.port)
        stats.session_flows[session_id] = (
            sock.conn.local_ip, sock.conn.local_port
        )
        # Every layer that only sees segments (TCP, Ethernet, dispatcher,
        # bridge) joins the trace through this flow-key binding.
        spans.bind_flow(
            flow_key(sock.conn.local_ip, sock.conn.local_port,
                     self.service_ip, self.port),
            ctx,
        )
        stats.record_open()
        opened = True
        try:
            connect_ctx = spans.start_span(
                ctx, "workload.connect", client.sim.now, client.name
            )
            yield from sock.wait_connected()
            spans.finish(connect_ctx, client.sim.now)
            deadline = client.sim.now + self.hold_for
            while client.sim.now < deadline:
                size = max(1, int(self.reply_sizes.sample(rng)))
                started = client.sim.now
                request_ctx = spans.start_span(
                    ctx, "workload.request", started, client.name, size=size
                )
                yield from sock.send_all(struct.pack(">I", size))
                reply = yield from sock.recv_exactly(size)
                spans.finish(request_ctx, client.sim.now)
                stats.requests_completed += 1
                stats.latencies.append(
                    (client.sim.now, client.sim.now - started, session_id)
                )
                stats.reply_bytes += len(reply)
                if reply != pattern_bytes(size, salt=size & 0xFF):
                    stats.corrupt_replies += 1
                think = self.think_times.sample(rng)
                if think > 0:
                    yield think
            yield from sock.send_all(struct.pack(">I", 0))
            stats.record_close()
            opened = False
            yield from sock.close_and_wait()
            stats.sessions_completed += 1
            spans.finish(ctx, client.sim.now)
        except ConnectionError as exc:
            stats.sessions_failed += 1
            stats.failures.append(f"session{session_id}: {exc}")
            if opened:
                stats.record_close()
                opened = False
            sock.abort()
            spans.finish(ctx, client.sim.now, error=str(exc))

    @property
    def complete(self) -> bool:
        finished = self.stats.sessions_completed + self.stats.sessions_failed
        return self._started and finished >= self.sessions


class OpenLoopWorkload:
    """Poisson arrivals of one-shot request/reply sessions.

    Classic open-loop offered load: sessions arrive at ``rate`` per
    second regardless of completions, each opening a fresh connection,
    performing one exchange, and closing — maximal connection churn for
    a given request rate (this is the driver that exercised the
    ephemeral-port allocator's lingering-tuple bug).
    """

    def __init__(
        self,
        clients: Sequence[Host],
        service_ip: Ipv4Address,
        port: int,
        rng: RngRegistry,
        rate: float = 100.0,
        arrivals: int = 100,
        reply_sizes: Optional[Distribution] = None,
    ):
        if not clients:
            raise ValueError("need at least one client host")
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        self.clients = list(clients)
        self.service_ip = service_ip
        self.port = port
        self.rate = rate
        self.arrivals = arrivals
        self.reply_sizes = reply_sizes or Fixed(1024)
        self.stats = WorkloadStats()
        self._arrival_rng = rng.stream("workload.open")
        self._session_rngs = [
            rng.stream(f"workload.open.session{i}") for i in range(arrivals)
        ]
        self._started = False

    def start(self) -> None:
        if self._started:
            raise RuntimeError("workload already started")
        self._started = True
        self.clients[0].spawn(self._spawner(), "workload.open.spawner")

    def _spawner(self) -> Generator:
        interarrival = Exponential(1.0 / self.rate)
        for i in range(self.arrivals):
            client = self.clients[i % len(self.clients)]
            client.spawn(self._one_shot(client, i), f"workload.open{i}")
            gap = interarrival.sample(self._arrival_rng)
            if gap > 0:
                yield gap

    def _one_shot(self, client: Host, session_id: int) -> Generator:
        rng = self._session_rngs[session_id]
        stats = self.stats
        stats.sessions_started += 1
        size = max(1, int(self.reply_sizes.sample(rng)))
        sock = SimSocket.connect(client, self.service_ip, self.port)
        stats.session_flows[session_id] = (
            sock.conn.local_ip, sock.conn.local_port
        )
        stats.record_open()
        opened = True
        try:
            yield from sock.wait_connected()
            started = client.sim.now
            yield from sock.send_all(struct.pack(">I", size))
            reply = yield from sock.recv_exactly(size)
            stats.requests_completed += 1
            stats.latencies.append(
                (client.sim.now, client.sim.now - started, session_id)
            )
            stats.reply_bytes += len(reply)
            if reply != pattern_bytes(size, salt=size & 0xFF):
                stats.corrupt_replies += 1
            yield from sock.send_all(struct.pack(">I", 0))
            stats.record_close()
            opened = False
            yield from sock.close_and_wait()
            stats.sessions_completed += 1
        except ConnectionError as exc:
            stats.sessions_failed += 1
            stats.failures.append(f"open{session_id}: {exc}")
            if opened:
                stats.record_close()
                opened = False
            sock.abort()

    @property
    def complete(self) -> bool:
        finished = self.stats.sessions_completed + self.stats.sessions_failed
        return self._started and finished >= self.arrivals
