"""Userspace L4 proxy with weighted backends and a failover runbook.

The shape follows the CockroachDB PCR repo's proxy layer (SNIPPETS.md):
an HAProxy-style frontend with the primary weighted 100 and the standby
weighted 10, health checks demoting dead backends, and an
``integrate``-style runbook that flips routing on failover — zero the
dead backend, promote the standby to full weight, and sever the relays
still pinned to the corpse so clients fail fast instead of waiting out
TCP retransmission.

The proxy is a plain simulated application: it accepts on a front port,
dials the chosen backend from its own ephemeral range, and runs two
byte pumps per session.  Backend failure surfaces to the client as an
abort (RST), which is exactly what a pooled client needs to invalidate
and re-dial — the client tier's layers compose.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.net.addresses import Ipv4Address
from repro.tcp.socket_api import ListeningSocket, SimSocket
from repro.clients.health import HealthMonitor

#: PCR proxy weights: primary serves ~91% of sessions, standby stays
#: warm with the remainder.
PRIMARY_WEIGHT = 100
STANDBY_WEIGHT = 10
#: Front-port accept backlog and the byte pumps' read size.
BACKLOG = 64
CHUNK = 4096


class _Backend:
    """One routing target; bookkeeping lives here, keyed by id."""

    def __init__(self, backend_id: str, host, ip: Ipv4Address, port: int,
                 weight: int):
        self.id = backend_id
        self.host = host
        self.ip = ip
        self.port = port
        self.weight = weight
        self.healthy = True
        self.sessions = 0


class _Relay:
    """A live client↔backend session held by the proxy."""

    def __init__(self, client_sock: SimSocket, backend_sock: SimSocket,
                 backend_id: str):
        self.client_sock = client_sock
        self.backend_sock = backend_sock
        self.backend_id = backend_id
        self.finished = False


class ProxyRunbook:
    """The ``integrate.py`` analog: operator actions as callable steps.

    Every step is journalled as ``(time, action, backend_id)`` so E14
    timelines show when routing flipped relative to detection and to the
    first recovered request.
    """

    def __init__(self, proxy: "L4Proxy"):
        self.proxy = proxy
        self.steps: List[tuple] = []

    def failover(self, backend_id: str) -> None:
        """Demote a dead backend, promote the survivors, cut its relays."""
        self.steps.append((self.proxy.sim.now, "failover", backend_id))
        dead = self.proxy.backend(backend_id)
        dead.healthy = False
        dead.weight = 0
        for other_id in self.proxy.backend_ids:
            if other_id == backend_id:
                continue
            other = self.proxy.backend(other_id)
            if other.healthy and other.weight < PRIMARY_WEIGHT:
                other.weight = PRIMARY_WEIGHT
        severed = self.proxy.sever_relays(backend_id)
        self.proxy.tracer.emit(
            self.proxy.sim.now, "clients.proxy.failover",
            self.proxy.host.name, backend=backend_id, severed=severed,
        )


class L4Proxy:
    """Weighted TCP relay over primary/standby backends."""

    def __init__(
        self,
        host,
        port: int,
        rng,
        *,
        health_interval: float = 0.010,
        health_timeout: float = 0.050,
    ):
        self.host = host
        self.sim = host.sim
        self.tracer = host.tracer
        self.port = port
        self.rng = rng
        self.health_interval = health_interval
        self.health_timeout = health_timeout
        self._backends: Dict[str, _Backend] = {}
        self.backend_ids: List[str] = []
        self.monitors: Dict[str, HealthMonitor] = {}
        self.relays: List[_Relay] = []
        self.runbook = ProxyRunbook(self)
        self.accepted = 0
        self.refused = 0
        self.severed = 0
        self.bytes_up = 0
        self.bytes_down = 0

    # -- configuration ----------------------------------------------------

    def add_backend(self, backend_id: str, host, port: int,
                    weight: int = PRIMARY_WEIGHT) -> None:
        addr = host.ip.primary_address()
        self._backends[backend_id] = _Backend(backend_id, host, addr, port, weight)
        self.backend_ids.append(backend_id)

    def backend(self, backend_id: str) -> _Backend:
        return self._backends[backend_id]

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Listen, start health checks, run the accept loop."""
        self.listener = ListeningSocket.listen(
            self.host, self.port, backlog=BACKLOG,
        )
        for backend_id in self.backend_ids:
            target = self._backends[backend_id].host
            monitor = HealthMonitor(
                self.host, target, self._down_callback(backend_id),
                interval=self.health_interval, timeout=self.health_timeout,
            )
            monitor.start()
            self.monitors[backend_id] = monitor
        self.host.spawn(self._accept_loop(), f"proxy.accept:{self.port}")

    def _down_callback(self, backend_id: str):
        def fire() -> None:
            if self._backends[backend_id].healthy:
                self.runbook.failover(backend_id)
        return fire

    # -- routing ----------------------------------------------------------

    def _choose(self) -> Optional[_Backend]:
        """Weighted draw over healthy backends (seeded, deterministic)."""
        live = [
            self._backends[bid] for bid in self.backend_ids
            if self._backends[bid].healthy and self._backends[bid].weight > 0
        ]
        if not live:
            return None
        total = sum(b.weight for b in live)
        roll = self.rng.random() * total
        for candidate in live:
            roll -= candidate.weight
            if roll < 0:
                return candidate
        return live[-1]

    def sever_relays(self, backend_id: str) -> int:
        """Abort every live relay pinned to ``backend_id``; returns count."""
        cut = 0
        for relay in list(self.relays):
            if relay.backend_id != backend_id or relay.finished:
                continue
            relay.finished = True
            relay.backend_sock.abort()
            relay.client_sock.abort()
            cut += 1
        self.severed += cut
        return cut

    # -- data path --------------------------------------------------------

    def _accept_loop(self) -> Generator:
        while True:
            client_sock = yield from self.listener.accept()
            choice = self._choose()
            if choice is None:
                self.refused += 1
                self.tracer.emit(
                    self.sim.now, "clients.proxy.refused", self.host.name,
                )
                client_sock.abort()
                continue
            self.accepted += 1
            choice.sessions += 1
            self.host.spawn(
                self._relay(client_sock, choice.id),
                f"proxy.relay:{choice.id}",
            )

    def _relay(self, client_sock, backend_id: str) -> Generator:
        chosen = self._backends[backend_id]
        try:
            backend_sock = SimSocket.connect(
                self.host, chosen.ip, chosen.port, failover=True,
            )
            yield from backend_sock.wait_connected()
        except (ConnectionError, OSError):
            client_sock.abort()
            return
        self.relays.append(_Relay(client_sock, backend_sock, backend_id))
        index = len(self.relays) - 1
        self.host.spawn(self._pump(index, upstream=True),
                        f"proxy.up:{backend_id}")
        yield from self._pump(index, upstream=False)

    def _pump(self, index: int, upstream: bool) -> Generator:
        relay = self.relays[index]
        src = relay.client_sock if upstream else relay.backend_sock
        dst = relay.backend_sock if upstream else relay.client_sock
        try:
            while True:
                data = yield from src.recv(CHUNK)
                if not data:
                    dst.close()
                    return
                if upstream:
                    self.bytes_up += len(data)
                else:
                    self.bytes_down += len(data)
                yield from dst.send_all(data)
        except (ConnectionError, OSError):
            if not relay.finished:
                relay.finished = True
                dst.abort()
                src.abort()
