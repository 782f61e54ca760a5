"""Tests for the testbed builder and the calibrated testbeds on it."""

import ast

from repro.apps.echo import echo_once, echo_server
from repro.harness.topology import (
    CLIENT_IP,
    SERVER_PROFILE,
    ChaosLan,
    Lan,
    LanTestbed,
    WanTestbed,
)
from repro.net.addresses import Ipv4Address
from repro.sim.process import spawn
from repro.tcp.socket_api import ListeningSocket, SimSocket
from tests.util import ROOT


def test_lan_unreplicated_roundtrip():
    bed = LanTestbed(seed=1, replicated=False)
    bed.server.spawn(echo_server(bed.server, 7), "echo")
    box = {}

    def client():
        reply = yield from echo_once(bed.client, bed.server_ip, 7, b"hi")
        box["reply"] = reply

    spawn(bed.sim, client(), "c")
    bed.run(until=5.0)
    assert box["reply"] == b"echo:hi"


def test_lan_replicated_roundtrip():
    bed = LanTestbed(seed=1, replicated=True, failover_ports=[7])
    bed.pair.run_app(lambda host: echo_server(host, 7), "echo")
    box = {}

    def client():
        reply = yield from echo_once(bed.client, bed.server_ip, 7, b"hi")
        box["reply"] = reply

    spawn(bed.sim, client(), "c")
    bed.run(until=5.0)
    assert box["reply"] == b"echo:hi"


def test_same_seed_is_bit_reproducible():
    def run(seed):
        bed = LanTestbed(seed=seed, replicated=True, failover_ports=[7])
        bed.pair.run_app(lambda host: echo_server(host, 7), "echo")
        box = {}

        def client():
            yield from echo_once(bed.client, bed.server_ip, 7, b"determinism")
            box["t"] = bed.sim.now

        spawn(bed.sim, client(), "c")
        bed.run(until=5.0)
        return box["t"], bed.sim.events_processed

    assert run(3) == run(3)
    assert run(3) != run(4)


def test_wan_topology_end_to_end():
    bed = WanTestbed(seed=2, replicated=False)
    box = {}

    def server():
        listening = ListeningSocket.listen(bed.server, 80)
        sock = yield from listening.accept()
        data = yield from sock.recv_exactly(4)
        yield from sock.send_all(b"pong" + data)
        yield from sock.close_and_wait()

    def client():
        sock = SimSocket.connect(bed.client, bed.server_ip, 80)
        yield from sock.wait_connected()
        yield from sock.send_all(b"ping")
        box["reply"] = yield from sock.recv_exactly(8)
        yield from sock.close_and_wait()

    bed.server.spawn(server(), "srv")
    spawn(bed.sim, client(), "cli")
    bed.run(until=30.0)
    assert box["reply"] == b"pongping"


def test_wan_latency_dominated_by_propagation():
    bed = WanTestbed(seed=2, replicated=False, wan_delay=0.050, wan_loss=0.0,
                     wan_cross_load=0.0)
    box = {}

    def server():
        listening = ListeningSocket.listen(bed.server, 80)
        sock = yield from listening.accept()
        yield from sock.recv_exactly(1)
        yield from sock.send_all(b"x")
        yield from sock.close_and_wait()

    def client():
        sock = SimSocket.connect(bed.client, bed.server_ip, 80)
        yield from sock.wait_connected()
        t0 = bed.sim.now
        yield from sock.send_all(b"x")
        yield from sock.recv_exactly(1)
        box["rtt"] = bed.sim.now - t0
        yield from sock.close_and_wait()

    bed.server.spawn(server(), "srv")
    spawn(bed.sim, client(), "cli")
    bed.run(until=30.0)
    assert box["rtt"] >= 0.100  # at least two 50 ms propagation crossings


def test_warm_arp_means_no_requests_on_lan():
    bed = LanTestbed(seed=1, replicated=False)
    bed.server.spawn(echo_server(bed.server, 7), "echo")

    def client():
        yield from echo_once(bed.client, bed.server_ip, 7, b"z")

    spawn(bed.sim, client(), "c")
    bed.run(until=5.0)
    assert bed.tracer.count("arp.request") == 0


# ----------------------------------------------------------------------
# the builder surface
# ----------------------------------------------------------------------


def _arp_view(host):
    return dict(host.eth_interface.arp.cache)


def test_warm_arp_primes_every_ordered_member_pair_and_nothing_else():
    lan = Lan(seed=1)
    lan.add_host("client", 1, CLIENT_IP)
    lan.add_pair((80,), SERVER_PROFILE)
    loner = lan.add_host("loner", 7)  # built on the LAN's plumbing, never attached
    for host in lan.hosts:
        assert _arp_view(host) == {}
    lan.warm_arp()
    assert [h.name for h in lan.hosts] == ["client", "primary", "secondary"]
    for host in lan.hosts:
        assert _arp_view(host) == {
            other.ip.primary_address(): other.nic.mac
            for other in lan.hosts if other is not host
        }
    assert loner._eth_interface is None


def test_attach_checks_names_its_taps_and_follows_a_reintegration():
    lan = ChaosLan(seed=3)
    assert "points=['lan', 'nic:client', 'nic:primary', 'nic:secondary']" in repr(lan.plane)
    first_bridge = lan.pair.primary_bridge
    assert lan.checker.bridges == [first_bridge]

    lan.start_detectors()
    lan.sim.schedule(0.010, lan.primary.crash)
    lan.sim.schedule(0.110, lan.primary.restart)
    lan.sim.schedule(0.140, lan.pair.reintegrate)
    lan.run(until=1.0)

    # The survivor re-armed with a brand-new merging bridge: checked too.
    assert len(lan.pair.reintegrations) == 1
    assert lan.pair.primary_bridge is not first_bridge
    assert lan.checker.bridges == [first_bridge, lan.pair.primary_bridge]
    lan.finish_checks()
    lan.assert_invariants()


def test_add_station_knows_every_member_but_no_member_knows_it():
    lan = ChaosLan(seed=1)
    before = {host.name: _arp_view(host) for host in lan.hosts}
    station = lan.add_station("attacker", 9, Ipv4Address("10.0.0.9"))
    assert _arp_view(station) == {
        host.ip.primary_address(): host.nic.mac for host in lan.hosts
    }
    assert station not in lan.hosts
    assert {host.name: _arp_view(host) for host in lan.hosts} == before
    for host in lan.hosts:
        assert station.nic.mac not in _arp_view(host).values()
    lan.warm_arp()  # the mesh stays the membership's: still no way in
    assert {host.name: _arp_view(host) for host in lan.hosts} == before


def _served_on(bed):
    """Names of the hosts on which ``Lan.serve`` started the app."""
    ran = []

    def factory(host):
        def app():
            ran.append(host.name)
            yield 0.0
        return app()

    bed.serve(factory, "svc")
    bed.run(until=0.01)
    return ran


def test_serve_runs_on_both_replicas_and_nowhere_else():
    assert _served_on(LanTestbed(seed=1, failover_ports=[7])) == ["primary", "secondary"]
    assert _served_on(WanTestbed(seed=1, failover_ports=[7])) == ["primary", "secondary"]


def test_serve_runs_on_the_one_server_of_an_unreplicated_testbed():
    assert _served_on(LanTestbed(seed=1, replicated=False)) == ["server"]
    assert _served_on(WanTestbed(seed=1, replicated=False)) == ["server"]


def test_fleet_caches_follow_the_one_priming_rule():
    """Every interface of the multi-segment fleet knows every address of
    every other interface on a segment it shares, and nothing beyond."""
    from repro.cluster import ShardedFleet

    fleet = ShardedFleet(shards=2, clients=3)
    legs = {}  # segment name -> [(interface, addresses)]
    for host in [fleet.dispatcher] + fleet.clients + [
        h for shard in fleet.shards for h in (shard.primary, shard.secondary)
    ]:
        for iface in host.ip.interfaces:
            legs.setdefault(iface.nic.segment.name, []).append(iface)
    assert sorted(legs) == ["front", "shard0", "shard1"]
    for members in legs.values():
        for iface in members:
            assert iface.arp.cache == {
                address: other.nic.mac
                for other in members if other is not iface
                for address in other.addresses
            }
    assert fleet.virtual_ip in fleet.dispatcher.eth_interface.addresses


# Where each topology class may be constructed besides the builder.
TOPOLOGY_CLASS_HOMES = {
    "Simulator": "sim/engine.py",
    "EthernetSegment": "net/ethernet.py",
    "Router": "net/router.py",
    "RngRegistry": "sim/rng.py",
    "Host": "net/host.py",
}


def test_only_the_builder_builds_a_topology():
    """Outside ``harness/topology.py`` (and each class's own module) no
    source file under ``src/repro`` constructs a simulator, a segment, a
    router, an RNG registry or a host: a topology has one builder."""
    package = ROOT / "src" / "repro"
    found = []
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).as_posix()
        if module == "harness/topology.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            home = TOPOLOGY_CLASS_HOMES.get(name)
            if home is not None and home != module:
                found.append(f"{module}:{node.lineno} {name}(...)")
    assert found == []
