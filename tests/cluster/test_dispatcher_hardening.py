"""Flow-table poisoning hardening on the dispatcher.

A spoofed initial SYN is the cheapest off-path forgery (no sequence
knowledge needed at all), so the two NAT-poisoning vectors it enables
are closed explicitly: re-steering a *live* pinned flow, and growing
or evicting the table via SYN floods.  ``tests/adversary`` drives the
same paths end-to-end; these tests pin the unit semantics.
"""

import struct

from repro.cluster import ShardedFleet
from repro.cluster.hashing import choose_shard, flow_key
from repro.net.packet import IPPROTO_TCP, Ipv4Datagram
from repro.tcp.segment import FLAG_SYN, TcpSegment
from repro.tcp.socket_api import SimSocket

PORT = 8000


def _fleet(**kwargs) -> ShardedFleet:
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("clients", 1)
    kwargs.setdefault("service_port", PORT)
    fleet = ShardedFleet(**kwargs)
    fleet.run_reply_service()
    return fleet


def _connect(fleet: ShardedFleet, client_index: int = 0) -> SimSocket:
    client = fleet.clients[client_index]
    sock = SimSocket.connect(client, fleet.virtual_ip, PORT)
    done = {}

    def waiter():
        yield from sock.wait_connected()
        done["ok"] = True

    client.spawn(waiter(), "test.connect")
    assert fleet.sim.run_until(lambda: done.get("ok"), timeout=5.0)
    fleet.sim.run(until=fleet.sim.now + 0.05)
    return sock


def _spoofed_syn(fleet, src_ip, src_port):
    """Run a forged initial SYN through the dispatcher's receive tap."""
    segment = TcpSegment(
        src_port=src_port, dst_port=PORT, seq=1234, ack=0,
        flags=FLAG_SYN, window=65535,
    ).sealed(src_ip, fleet.virtual_ip)
    return fleet.service._tap(Ipv4Datagram(
        src=src_ip, dst=fleet.virtual_ip,
        protocol=IPPROTO_TCP, payload=segment,
    ))


def test_spoofed_syn_for_live_flow_is_refused():
    fleet = _fleet(seed=11)
    sock = _connect(fleet)
    conn = sock.conn
    pinned = fleet.service.shard_of(conn.local_ip, conn.local_port)
    _spoofed_syn(fleet, conn.local_ip, conn.local_port)
    assert fleet.service.syn_reassigns_refused == 1
    assert fleet.service.shard_of(conn.local_ip, conn.local_port) == pinned
    # The victim flow still works end-to-end after the poisoning attempt.
    result = {}

    def exchange():
        yield from sock.send_all(struct.pack(">I", 64))
        result["reply"] = yield from sock.recv_exactly(64)

    fleet.clients[0].spawn(exchange(), "test.exchange")
    assert fleet.sim.run_until(lambda: "reply" in result, timeout=5.0)


def test_live_flow_keeps_even_a_stale_pin():
    """Refusal is unconditional on pin quality: while the flow is live,
    a SYN cannot move it — not even back to its rendezvous shard."""
    fleet = _fleet(seed=12)
    service = fleet.service
    client_ip = fleet.clients[0].ip.primary_address()
    rendezvous = choose_shard(
        flow_key(client_ip, 55_000), list(service.backends)
    )
    wrong = next(s for s in service.backends if s != rendezvous)
    service.flows.pin((client_ip.value, 55_000), wrong, fleet.sim.now)
    _spoofed_syn(fleet, client_ip, 55_000)
    assert service.syn_reassigns_refused == 1
    assert service.shard_of(client_ip, 55_000) == wrong


def test_idle_flow_syn_reassigns_to_rendezvous():
    """A genuinely closed-and-reopened client port (quiet past the idle
    threshold) must still follow the placement — hardening cannot wedge
    legitimate reconnects."""
    fleet = _fleet(seed=13)
    service = fleet.service
    service.syn_reassign_min_idle = 0.05
    client_ip = fleet.clients[0].ip.primary_address()
    rendezvous = choose_shard(
        flow_key(client_ip, 55_000), list(service.backends)
    )
    wrong = next(s for s in service.backends if s != rendezvous)
    service.flows.pin((client_ip.value, 55_000), wrong, fleet.sim.now)
    fleet.sim.run(until=fleet.sim.now + 0.1)
    _spoofed_syn(fleet, client_ip, 55_000)
    assert service.syn_reassigns_refused == 0
    assert service.shard_of(client_ip, 55_000) == rendezvous


def test_full_table_rejects_new_pins_without_evicting_live_flows():
    fleet = _fleet(seed=14)
    service = fleet.service
    service.max_flows = 4
    service.flow_idle_timeout = 30.0
    client_ip = fleet.clients[0].ip.primary_address()
    for i in range(4):
        service.flows.pin((client_ip.value, 50_000 + i), "s0", fleet.sim.now)
    out = _spoofed_syn(fleet, client_ip, 60_000)
    assert out is None
    assert service.flows_rejected == 1
    assert service.flow_count() == 4
    for i in range(4):
        assert service.flows.slot_of((client_ip.value, 50_000 + i)) >= 0
