"""VirtualService NAT behaviour, observed through a live fleet.

These tests exercise the dispatcher through real TCP traffic (the NAT
rewrites are validated by the receiving stacks' checksum checks — a
single bad fixup kills the connection), plus direct flow-table
manipulation for the placement-change paths.
"""

import pytest

from repro.cluster import ShardedFleet, VirtualService
from repro.cluster.hashing import choose_shard, flow_key
from repro.tcp.socket_api import SimSocket
from repro.workload import ClosedLoopWorkload, Fixed

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
    # Let the server side finish processing the handshake's final ACK.
    fleet.sim.run(until=fleet.sim.now + 0.05)
    return sock


def test_dispatcher_requires_forwarding_host():
    fleet = _fleet()
    with pytest.raises(ValueError):
        VirtualService(
            fleet.clients[0], fleet.virtual_ip, PORT,
            {"s0": fleet.shards[0].service_ip},
        )
    with pytest.raises(ValueError):
        VirtualService(fleet.dispatcher, fleet.virtual_ip, PORT, {})


def test_flow_lands_on_the_rendezvous_shard():
    fleet = _fleet(seed=1)
    sock = _connect(fleet)
    conn = sock.conn
    expected = choose_shard(
        flow_key(conn.local_ip, conn.local_port),
        [s.shard_id for s in fleet.shards],
    )
    assert fleet.service.shard_of(conn.local_ip, conn.local_port) == expected
    # The server-side TCB lives on exactly that shard's primary.
    by_id = {s.shard_id: s for s in fleet.shards}
    assert by_id[expected].primary.tcp.established_count() == 1
    other = [s for s in fleet.shards if s.shard_id != expected][0]
    assert other.primary.tcp.established_count() == 0
    # The client only ever saw the virtual IP.
    assert conn.remote_ip == fleet.virtual_ip


def test_return_traffic_comes_from_virtual_ip():
    fleet = _fleet(seed=2)
    sock = _connect(fleet)
    # A full request/reply round trip — reply segments had src rewritten
    # back to the VIP or the client stack would have dropped them.
    import struct

    from repro.apps.bulk import pattern_bytes

    result = {}

    def exchange():
        yield from sock.send_all(struct.pack(">I", 700))
        result["reply"] = yield from sock.recv_exactly(700)

    fleet.clients[0].spawn(exchange(), "test.exchange")
    assert fleet.sim.run_until(lambda: "reply" in result, timeout=5.0)
    assert result["reply"] == pattern_bytes(700, salt=700 & 0xFF)
    assert fleet.service.segments_in > 0
    assert fleet.service.segments_out > 0


def test_flow_table_counts_and_new_flow_attribution():
    fleet = _fleet(seed=3, clients=2)
    wl = ClosedLoopWorkload(
        fleet.clients, fleet.virtual_ip, PORT, fleet.rng,
        sessions=8, reply_sizes=Fixed(64), think_times=Fixed(0.005),
        ramp=0.02, hold_for=0.1,
    )
    wl.start()
    assert fleet.sim.run_until(lambda: wl.complete, timeout=10.0)
    assert fleet.service.flow_count() == 8
    assert sum(fleet.service.new_flows.values()) == 8
    # Attribution matches the recorded per-session flows.
    for _sid, (ip, port) in wl.stats.session_flows.items():
        assert fleet.service.shard_of(ip, port) in fleet.service.backends


def test_remove_backend_resteers_only_its_keys():
    fleet = _fleet(seed=4)
    service = fleet.service
    keys = [(fleet.clients[0].ip.primary_address(), 40_000 + i)
            for i in range(64)]
    before = {k: service.shard_of(*k) for k in keys}
    service.remove_backend("s0")
    for key, shard_before in before.items():
        after = service.shard_of(*key)
        if shard_before == "s0":
            assert after == "s1"
        else:
            assert after == "s1" == shard_before  # two shards: survivors stay


def test_segments_to_removed_pinned_shard_are_dropped():
    fleet = _fleet(seed=5)
    sock = _connect(fleet)
    conn = sock.conn
    pinned = fleet.service.shard_of(conn.local_ip, conn.local_port)
    dropped_before = fleet.service.segments_dropped
    fleet.service.remove_backend(pinned)
    # The established flow stays pinned to the now-removed shard; its next
    # segment is dropped (and counted), not silently misrouted.
    import struct

    def send_into_void():
        yield from sock.send_all(struct.pack(">I", 64))

    fleet.clients[0].spawn(send_into_void(), "test.void")
    fleet.sim.run(until=fleet.sim.now + 0.5)
    assert fleet.service.segments_dropped > dropped_before


def test_add_backend_extends_steering():
    fleet = _fleet(seed=6)
    service = fleet.service
    assert "s9" not in service.backends
    service.add_backend("s9", fleet.shards[0].service_ip)
    assert "s9" in service.backends
    assert service.new_flows["s9"] == 0
    service.remove_backend("s9")
    # s0 shares the same service IP and still needs return-path rewrites.
    assert fleet.shards[0].service_ip.value in service._backend_ip_values


def test_idle_flow_pruning_at_capacity():
    fleet = _fleet(seed=7)
    service = fleet.service
    service.max_flows = 4
    service.flow_idle_timeout = 0.001
    client_ip = fleet.clients[0].ip.primary_address()
    for i in range(4):
        service.flows.pin((client_ip.value, 50_000 + i), "s0", fleet.sim.now)
    fleet.sim.run(until=fleet.sim.now + 0.1)
    sock = _connect(fleet)
    # The four synthetic idle flows were evicted to admit the live one.
    assert service.flow_count() <= 2
    assert sock.conn.state.name == "ESTABLISHED"
