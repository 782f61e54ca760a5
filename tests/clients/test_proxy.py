"""L4 proxy: weighted routing, health-driven runbook failover, severing."""

from __future__ import annotations

import struct
from typing import Generator, List

from repro.apps.request_reply import pattern_bytes, reply_server
from repro.clients.pool import ConnectionPool, constant_resolver
from repro.clients.proxy import (
    L4Proxy, PRIMARY_WEIGHT, STANDBY_WEIGHT,
)
from repro.harness.topology import Lan
from repro.net.addresses import Ipv4Address
from repro.tcp.socket_api import SimSocket

PORT = 8000
CLIENT_IP = Ipv4Address("10.0.0.1")
PRIMARY_IP = Ipv4Address("10.0.0.2")
STANDBY_IP = Ipv4Address("10.0.0.3")
PROXY_IP = Ipv4Address("10.0.0.10")


class ProxyLan(Lan):
    """Client, proxy, and two backends on one collision-free segment."""

    def __init__(self, seed: int = 0):
        super().__init__(seed, record_traces=True, mac_base=0x0200_0000_1000,
                         segment_name="eth0")
        self.client = self.add_host("client", 1, CLIENT_IP)
        self.primary = self.add_host("primary", 2, PRIMARY_IP)
        self.standby = self.add_host("standby", 3, STANDBY_IP)
        self.frontend = self.add_host("proxy", 10, PROXY_IP)
        self.warm_arp()
        self.primary.spawn(reply_server(self.primary, PORT), "reply")
        self.standby.spawn(reply_server(self.standby, PORT), "reply")
        self.proxy = L4Proxy(
            self.frontend, PORT, self.rng.stream("clients.proxy"),
            health_interval=0.010, health_timeout=0.050,
        )
        self.proxy.add_backend("primary", self.primary, PORT,
                               weight=PRIMARY_WEIGHT)
        self.proxy.add_backend("standby", self.standby, PORT,
                               weight=STANDBY_WEIGHT)


def _exchange(lan: ProxyLan, size: int, replies: List[bytes]) -> Generator:
    sock = SimSocket.connect(lan.client, PROXY_IP, PORT)
    yield from sock.wait_connected()
    yield from sock.send_all(struct.pack(">I", size))
    replies.append((yield from sock.recv_exactly(size)))
    yield from sock.send_all(struct.pack(">I", 0))
    yield from sock.close_and_wait()


def test_proxy_relays_request_reply_end_to_end():
    lan = ProxyLan(seed=1)
    lan.proxy.start()
    replies: List[bytes] = []
    lan.client.spawn(_exchange(lan, 512, replies), "x")
    lan.sim.run(until=2.0)
    assert replies == [pattern_bytes(512, salt=512 & 0xFF)]
    assert lan.proxy.accepted == 1
    assert lan.proxy.bytes_up >= 8
    assert lan.proxy.bytes_down >= 512


def test_weighted_routing_prefers_the_primary():
    lan = ProxyLan(seed=2)
    lan.proxy.start()
    replies: List[bytes] = []

    def driver() -> Generator:
        for _ in range(30):
            yield from _exchange(lan, 64, replies)

    lan.client.spawn(driver(), "driver")
    lan.sim.run(until=10.0)
    primary_sessions = lan.proxy.backend("primary").sessions
    standby_sessions = lan.proxy.backend("standby").sessions
    assert primary_sessions + standby_sessions == 30
    # 100:10 weights: the primary must dominate (P[standby] = 1/11).
    assert primary_sessions > standby_sessions * 2


def test_runbook_failover_promotes_standby_and_severs_relays():
    lan = ProxyLan(seed=3)
    lan.proxy.start()
    results: List[str] = []

    def long_session() -> Generator:
        sock = SimSocket.connect(lan.client, PROXY_IP, PORT)
        yield from sock.wait_connected()
        yield from sock.send_all(struct.pack(">I", 64))
        yield from sock.recv_exactly(64)
        yield 1.0  # hold the relay open across the crash
        try:
            yield from sock.send_all(struct.pack(">I", 64))
            yield from sock.recv_exactly(64)
            results.append("survived")
        except (ConnectionError, OSError):
            results.append("severed")

    lan.client.spawn(long_session(), "long")
    lan.sim.call_at(0.3, lan.primary.crash)
    lan.sim.run(until=3.0)
    # Health checks noticed the dead primary and the runbook flipped.
    assert [s[1] for s in lan.proxy.runbook.steps] == ["failover"]
    assert lan.proxy.backend("primary").weight == 0
    assert not lan.proxy.backend("primary").healthy
    assert lan.proxy.backend("standby").weight == PRIMARY_WEIGHT
    # The in-flight relay pinned to the corpse was cut, not left hanging —
    # unless the session happened to be routed to the standby (weight 10/110).
    if lan.proxy.backend("primary").sessions:
        assert results == ["severed"]
        assert lan.proxy.severed == 1
    assert lan.tracer.select(category="clients.proxy.failover")


def test_new_sessions_after_failover_reach_the_standby():
    lan = ProxyLan(seed=4)
    lan.proxy.start()
    replies: List[bytes] = []

    def late_driver() -> Generator:
        yield 1.0  # well after detection + runbook
        for _ in range(5):
            yield from _exchange(lan, 128, replies)

    lan.client.spawn(late_driver(), "late")
    lan.sim.call_at(0.2, lan.primary.crash)
    lan.sim.run(until=5.0)
    assert len(replies) == 5
    assert all(r == pattern_bytes(128, salt=128 & 0xFF) for r in replies)
    assert lan.proxy.backend("standby").sessions == 5


def test_refused_when_no_backend_is_live():
    lan = ProxyLan(seed=5)
    lan.proxy.start()
    refused: List[str] = []

    def doomed() -> Generator:
        yield 1.0
        sock = SimSocket.connect(lan.client, PROXY_IP, PORT)
        try:
            yield from sock.wait_connected()
            yield from sock.recv(1)
            refused.append("data?")
        except (ConnectionError, OSError):
            refused.append("refused")

    lan.client.spawn(doomed(), "doomed")
    lan.sim.call_at(0.2, lan.primary.crash)
    lan.sim.call_at(0.2, lan.standby.crash)
    lan.sim.run(until=5.0)
    assert refused == ["refused"]
    assert lan.proxy.refused == 1


def test_pool_over_proxy_recovers_after_failover():
    """The composition E14 relies on: pool + proxy recover together."""
    lan = ProxyLan(seed=6)
    lan.proxy.start()
    pool = ConnectionPool(
        lan.client, PORT, constant_resolver(PROXY_IP),
        lan.rng.stream("clients.pool"), max_size=2, retry_budget=6,
        backoff_base=0.020, attempt_timeout=0.25,
    )
    replies: List[int] = []

    def driver() -> Generator:
        for i in range(20):
            reply = yield from pool.request(64)
            replies.append(len(reply))
            yield 0.05

    lan.client.spawn(driver(), "driver")
    lan.sim.call_at(0.3, lan.primary.crash)
    lan.sim.run(until=10.0)
    assert replies == [64] * 20
