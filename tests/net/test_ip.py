"""Unit tests for the IP layer: delivery, forwarding, taps, routing."""

import pytest

import repro.net.arp as arp_module
from repro.net.addresses import Ipv4Address
from repro.net.arp import ArpPacket
from repro.net.ethernet import EthernetSegment
from repro.net.host import Host
from repro.net.ip import RoutingError
from repro.net.nic import Nic
from repro.net.packet import IPPROTO_HEARTBEAT, HeartbeatPayload, Ipv4Datagram
from repro.net.router import Router
from repro.sim.engine import Simulator
from tests.util import mac


def build_pair():
    sim = Simulator()
    segment = EthernetSegment(sim, collision_prob=0.0)
    a = Host(sim, "a", mac(1))
    b = Host(sim, "b", mac(2))
    a.attach_ethernet(segment, Ipv4Address("10.0.0.1"))
    b.attach_ethernet(segment, Ipv4Address("10.0.0.2"))
    a.eth_interface.arp.prime(Ipv4Address("10.0.0.2"), b.nic.mac)
    b.eth_interface.arp.prime(Ipv4Address("10.0.0.1"), a.nic.mac)
    return sim, a, b


def heartbeat(src, dst, seq=1):
    return Ipv4Datagram(
        src=src, dst=dst, protocol=IPPROTO_HEARTBEAT,
        payload=HeartbeatPayload("t", seq),
    )


def test_local_protocol_delivery():
    sim, a, b = build_pair()
    seen = []
    b.add_heartbeat_handler(seen.append)
    a.send_raw_datagram(heartbeat(a.primary_ip(), b.primary_ip()))
    sim.run()
    assert len(seen) == 1
    assert seen[0].payload.sequence == 1


def test_unknown_protocol_dropped():
    sim, a, b = build_pair()
    a.send_raw_datagram(
        Ipv4Datagram(src=a.primary_ip(), dst=b.primary_ip(), protocol=99,
                     payload=HeartbeatPayload("x", 1))
    )
    sim.run()
    assert b.ip.datagrams_dropped == 1


def test_loopback_delivery_stays_local():
    sim, a, b = build_pair()
    seen = []
    a.add_heartbeat_handler(seen.append)
    a.send_raw_datagram(heartbeat(a.primary_ip(), a.primary_ip()))
    sim.run()
    assert len(seen) == 1
    assert a.nic.frames_sent == 0


def test_no_route_raises():
    sim, a, b = build_pair()
    with pytest.raises(RoutingError):
        a.ip.send(heartbeat(a.primary_ip(), Ipv4Address("192.168.1.1")))


def test_default_gateway_used_for_off_subnet():
    sim = Simulator()
    segment = EthernetSegment(sim, collision_prob=0.0)
    a = Host(sim, "a", mac(1))
    router = Router(sim, "r", mac(2))
    a.attach_ethernet(segment, Ipv4Address("10.0.0.1"))
    router.attach_ethernet(segment, Ipv4Address("10.0.0.254"))
    a.ip.set_default_gateway(Ipv4Address("10.0.0.254"))
    a.eth_interface.arp.prime(Ipv4Address("10.0.0.254"), router.nic.mac)
    # Router has a second subnet with a host behind it.
    segment2 = EthernetSegment(sim, collision_prob=0.0)
    b = Host(sim, "b", mac(3))
    b.attach_ethernet(segment2, Ipv4Address("10.0.1.1"))
    b.ip.set_default_gateway(Ipv4Address("10.0.1.254"))
    router2_nic_ip = Ipv4Address("10.0.1.254")
    # Attach a second interface to the router on segment2.
    from repro.net.ip import EthernetInterface
    from repro.net.nic import Nic

    nic2 = Nic(mac(4), name="r.nic2")
    nic2.attach(segment2)
    iface2 = EthernetInterface(sim, nic2, router2_nic_ip, 24, node_name="r")
    nic2.set_receiver(lambda frame: router.ip.frame_received(iface2, frame))
    router.ip.add_interface(iface2)
    iface2.arp.prime(Ipv4Address("10.0.1.1"), b.nic.mac)

    seen = []
    b.add_heartbeat_handler(seen.append)
    a.send_raw_datagram(heartbeat(a.primary_ip(), Ipv4Address("10.0.1.1")))
    sim.run()
    assert len(seen) == 1
    assert router.ip.datagrams_forwarded == 1


def test_forwarding_decrements_ttl_and_drops_at_zero():
    sim, a, b = build_pair()
    datagram = heartbeat(a.primary_ip(), b.primary_ip())
    assert datagram.decremented_ttl().ttl == 63
    low = Ipv4Datagram(
        src=a.primary_ip(), dst=b.primary_ip(), protocol=IPPROTO_HEARTBEAT,
        payload=HeartbeatPayload("x", 1), ttl=1,
    )
    assert low.decremented_ttl() is None


def test_rx_tap_can_consume():
    sim, a, b = build_pair()
    seen = []
    b.add_heartbeat_handler(seen.append)
    b.ip.set_rx_tap(lambda dgram: None)  # consume everything
    a.send_raw_datagram(heartbeat(a.primary_ip(), b.primary_ip()))
    sim.run()
    assert seen == []


def test_rx_tap_can_rewrite():
    sim, a, b = build_pair()
    seen = []
    b.add_heartbeat_handler(seen.append)
    other_ip = Ipv4Address("10.0.0.99")
    b.eth_interface.add_address(other_ip)
    # Rewrite destination to the alias; delivery should still work.
    b.ip.set_rx_tap(lambda dgram: dgram.with_dst(other_ip))
    a.send_raw_datagram(heartbeat(a.primary_ip(), b.primary_ip()))
    sim.run()
    assert len(seen) == 1


def test_owned_ips_includes_aliases():
    sim, a, b = build_pair()
    alias = Ipv4Address("10.0.0.50")
    a.eth_interface.add_address(alias)
    assert a.ip.owns(alias)
    assert alias in a.ip.owned_ips()
    a.eth_interface.remove_address(alias)
    assert not a.ip.owns(alias)


def test_non_forwarding_host_drops_transit_traffic():
    sim, a, b = build_pair()
    transit = heartbeat(a.primary_ip(), Ipv4Address("10.0.0.77"))
    b.ip.datagram_received(transit)
    assert b.ip.datagrams_dropped == 1


def test_crashed_host_is_silent():
    sim, a, b = build_pair()
    seen = []
    b.add_heartbeat_handler(seen.append)
    a.crash()
    a.send_raw_datagram(heartbeat(a.primary_ip(), b.primary_ip()))
    sim.run()
    assert seen == []


# -- EthernetInterface.send_datagram: one zero-delay hop, warm or cold -----------


def sniff(segment):
    """Every frame on ``segment``, in wire order."""
    frames = []
    sniffer = Nic(mac(9), name="sniffer")
    sniffer.attach(segment)
    sniffer.set_promiscuous(True)
    sniffer.set_receiver(frames.append)
    return frames


def test_warm_send_is_one_timer_and_no_event(monkeypatch):
    sim, a, b = build_pair()
    events_built = []
    real_event = arp_module.Event
    monkeypatch.setattr(
        arp_module, "Event",
        lambda *args, **kwargs: events_built.append(1) or real_event(*args, **kwargs),
    )
    sent_so_far = []
    sim.schedule(0.0, lambda: sent_so_far.append(a.nic.frames_sent))
    pending = sim.pending_events
    a.eth_interface.send_datagram(heartbeat(a.primary_ip(), b.primary_ip()), b.primary_ip())
    # Exactly one scheduler entry (one sequence number), nothing sent yet ...
    assert sim.pending_events == pending + 1
    assert a.nic.frames_sent == 0
    assert events_built == []
    sim.schedule(0.0, lambda: sent_so_far.append(a.nic.frames_sent))
    sim.run()
    # ... and it fires in its place between the neighbours scheduled around it.
    assert sent_so_far == [0, 1]
    # The cold path does build an Event: the probe above would have seen one.
    a.eth_interface.send_datagram(heartbeat(a.primary_ip(), b.primary_ip()),
                                  Ipv4Address("10.0.0.3"))
    assert events_built == [1]


def test_gratuitous_arp_later_in_the_instant_is_on_the_wire_first():
    """The order the ``crash_pull`` golden pins at t = 0.050: a datagram sent
    on a warm cache waits one zero-delay hop, so an ``announce()`` issued
    after it in the same instant still precedes it on the wire."""
    sim, a, b = build_pair()
    frames = sniff(a.nic.segment)
    a.send_raw_datagram(heartbeat(a.primary_ip(), b.primary_ip()))
    a.eth_interface.arp.announce(a.primary_ip())
    assert a.nic.frames_sent == 1  # the announcement only, so far
    sim.run()
    assert [type(frame.payload) for frame in frames] == [ArpPacket, Ipv4Datagram]


def test_cold_send_queues_behind_resolution():
    sim, a, b = build_pair()
    del a.eth_interface.arp.cache[b.primary_ip()]
    frames = sniff(a.nic.segment)
    seen = []
    b.add_heartbeat_handler(seen.append)
    a.send_raw_datagram(heartbeat(a.primary_ip(), b.primary_ip(), seq=1))
    a.send_raw_datagram(heartbeat(a.primary_ip(), b.primary_ip(), seq=2))
    assert a.nic.frames_sent == 1  # the ARP request
    sim.run()
    assert [type(frame.payload) for frame in frames] == [
        ArpPacket, ArpPacket, Ipv4Datagram, Ipv4Datagram,
    ]
    assert [datagram.payload.sequence for datagram in seen] == [1, 2]


def test_unresolvable_next_hop_drops_the_datagram():
    sim, a, b = build_pair()
    frames = sniff(a.nic.segment)
    a.send_raw_datagram(heartbeat(a.primary_ip(), Ipv4Address("10.0.0.77")))
    sim.run()  # three requests, then ResolutionFailed — swallowed, not raised
    assert frames and all(frame.ethertype != 0x0800 for frame in frames)
    assert a.ip.datagrams_sent == 1
