"""The bridge's costs are a property of the machine it runs on.

Every bridge reads ``bridge_cost``/``emit_cost`` from its host's
:class:`~repro.net.host.HostProfile`: the calibrated server class carries
20/30 µs, the default machine 15/25 µs.  These tests walk every place the
code builds a bridge — testbeds, fleet shards, a reintegration's re-armed
pair and a chain's spliced-in tail — plus the router's forwarding cost.
"""

import pytest

from repro.cluster.fleet import ShardedFleet
from repro.failover.chain import ReplicatedChain
from repro.harness.topology import (
    SERVER_PROFILE,
    Lan,
    LanTestbed,
    ReplicatedLan,
    WanTestbed,
)
from repro.net.addresses import Ipv4Address
from repro.net.host import DEFAULT_PROFILE
from repro.net.packet import IPPROTO_HEARTBEAT, HeartbeatPayload, Ipv4Datagram
from repro.net.router import FORWARDING_COST

SERVER_COSTS = (20e-6, 30e-6)
DEFAULT_COSTS = (15e-6, 25e-6)


def costs(pair):
    """(bridge, emit) of the primary bridge; the secondary's bridge cost."""
    primary, secondary = pair.primary_bridge, pair.secondary_bridge
    assert secondary.bridge_cost == primary.bridge_cost
    return primary.bridge_cost, primary.emit_cost


def test_profiles_carry_the_bridge_costs():
    assert (SERVER_PROFILE.bridge_cost, SERVER_PROFILE.emit_cost) == SERVER_COSTS
    assert (DEFAULT_PROFILE.bridge_cost, DEFAULT_PROFILE.emit_cost) == DEFAULT_COSTS


def test_calibrated_testbed_and_fleet_shards_use_the_server_class():
    assert costs(LanTestbed(seed=1, failover_ports=[80]).pair) == SERVER_COSTS
    fleet = ShardedFleet(shards=2, clients=1, seed=1)
    assert [costs(shard.pair) for shard in fleet.shards] == [SERVER_COSTS] * 2


def test_default_cost_testbed_uses_the_default_class():
    assert costs(ReplicatedLan().pair) == DEFAULT_COSTS


def test_reintegration_rearms_bridges_of_the_hosts_class():
    bed = LanTestbed(seed=1, failover_ports=[80])
    bed.start_detectors()
    first = bed.pair.primary_bridge
    bed.sim.schedule(0.010, bed.primary.crash)
    bed.sim.schedule(0.110, bed.primary.restart)
    results = []
    bed.sim.schedule(0.140, lambda: results.append(bed.pair.reintegrate()))
    bed.run(until=0.200)

    (result,) = results
    assert result.installed
    assert bed.pair.primary_bridge is not first  # built by the reintegration
    assert costs(bed.pair) == SERVER_COSTS


def test_spliced_in_tail_bridge_follows_its_own_host():
    lan = Lan(seed=1)
    replicas = [
        lan.add_host(f"replica{i}", 10 + i, Ipv4Address(f"10.0.0.{10 + i}"))
        for i in range(2)
    ]
    spare = lan.add_host("spare", 12, Ipv4Address("10.0.0.12"), SERVER_PROFILE)
    lan.warm_arp()
    chain = ReplicatedChain(replicas, failover_ports=[80])
    tail = chain.splice_in(spare)
    lan.run(until=0.010)

    assert spare.bridge is tail
    assert (tail.bridge_cost, tail.emit_cost) == SERVER_COSTS
    old_tail = chain.bridges["replica1"]
    assert (old_tail.bridge_cost, old_tail.emit_cost) == DEFAULT_COSTS


def test_router_forwards_at_forwarding_cost():
    bed = WanTestbed(seed=1, replicated=False)
    seen = []
    bed.server.add_heartbeat_handler(seen.append)
    bed.client.send_raw_datagram(Ipv4Datagram(
        src=bed.client.primary_ip(), dst=bed.server_ip,
        protocol=IPPROTO_HEARTBEAT, payload=HeartbeatPayload("t", 1),
    ))
    bed.run(until=1.0)

    assert len(seen) == 1
    assert bed.router.ip.datagrams_forwarded == 1
    assert bed.router.cpu.busy_time == pytest.approx(FORWARDING_COST)
