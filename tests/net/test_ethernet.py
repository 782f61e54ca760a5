"""Unit tests for the shared-medium Ethernet model."""

import random

from repro.net.addresses import MacAddress
from repro.net.ethernet import EthernetSegment
from repro.net.nic import Nic
from repro.net.packet import EthernetFrame
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer


class FakePayload:
    def __init__(self, size):
        self.wire_size = size


def build(n=3, collision_prob=0.0, bandwidth=100e6):
    sim = Simulator()
    segment = EthernetSegment(
        sim, bandwidth_bps=bandwidth, collision_prob=collision_prob,
        rng=random.Random(1),
    )
    nics = []
    inboxes = []
    for i in range(n):
        nic = Nic(MacAddress(i + 1), name=f"nic{i}")
        inbox = []
        nic.set_receiver(lambda f, box=inbox: box.append(f))
        nic.attach(segment)
        nics.append(nic)
        inboxes.append(inbox)
    return sim, segment, nics, inboxes


def frame(src, dst, size=100):
    return EthernetFrame(src.mac, dst.mac, 0x0800, FakePayload(size - 18))


def test_unicast_reaches_addressee_only():
    sim, segment, nics, inboxes = build()
    nics[0].send(frame(nics[0], nics[1]))
    sim.run()
    assert len(inboxes[1]) == 1
    assert inboxes[0] == [] and inboxes[2] == []


def test_bus_semantics_promiscuous_sees_everything():
    sim, segment, nics, inboxes = build()
    nics[2].set_promiscuous(True)
    nics[0].send(frame(nics[0], nics[1]))
    sim.run()
    assert len(inboxes[1]) == 1
    assert len(inboxes[2]) == 1  # snooped
    assert nics[2].frames_snooped == 1


def test_sender_does_not_hear_own_frame():
    sim, segment, nics, inboxes = build()
    nics[0].set_promiscuous(True)
    nics[0].send(frame(nics[0], nics[1]))
    sim.run()
    assert inboxes[0] == []


def test_transmission_time_matches_bandwidth():
    sim, segment, nics, inboxes = build()
    # 1518-byte frame at 100 Mbit/s = 121.44 us + 1 us propagation.
    nics[0].send(frame(nics[0], nics[1], size=1518))
    sim.run()
    assert abs(sim.now - (1518 * 8 / 100e6 + 1e-6)) < 1e-9


def test_frame_is_sized_once_per_hop():
    class CountingPayload:
        reads = 0

        @property
        def wire_size(self):
            CountingPayload.reads += 1
            return 482

    sim = Simulator()
    registry = MetricsRegistry()
    tracer = Tracer(record=True)
    segment = EthernetSegment(sim, collision_prob=0.0, metrics=registry, tracer=tracer)
    sender, receiver = Nic(MacAddress(1)), Nic(MacAddress(2))
    sender.attach(segment)
    receiver.attach(segment)
    sender.send(EthernetFrame(sender.mac, receiver.mac, 0x0800, CountingPayload()))
    sim.run()
    # Timing, the byte counter and the trace record all saw the same 500.
    assert abs(sim.now - (500 * 8 / 100e6 + 1e-6)) < 1e-12
    assert registry.counter("eth.bytes", segment="eth0").value == 500
    (record,) = tracer.select("eth.rx")
    assert record.detail["size"] == 500
    assert CountingPayload.reads == 1


def test_minimum_frame_size_enforced():
    payload = FakePayload(1)
    f = EthernetFrame(MacAddress(1), MacAddress(2), 0x0800, payload)
    assert f.wire_size == 64


def test_busy_medium_serializes_transmissions():
    sim, segment, nics, inboxes = build()
    nics[0].send(frame(nics[0], nics[2], size=1518))
    nics[1].send(frame(nics[1], nics[2], size=1518))
    sim.run()
    assert len(inboxes[2]) == 2
    arrival_gap = 1518 * 8 / 100e6  # second frame waits for the first
    assert sim.now >= 2 * arrival_gap


def test_collisions_occur_under_contention_when_enabled():
    sim, segment, nics, inboxes = build(collision_prob=1.0)
    for _ in range(5):
        nics[0].send(frame(nics[0], nics[2]))
        nics[1].send(frame(nics[1], nics[2]))
    sim.run()
    assert segment.collisions > 0
    assert len(inboxes[2]) == 10  # still all delivered after backoff


def test_no_collisions_when_disabled():
    sim, segment, nics, inboxes = build(collision_prob=0.0)
    for _ in range(10):
        nics[0].send(frame(nics[0], nics[2]))
        nics[1].send(frame(nics[1], nics[2]))
    sim.run()
    assert segment.collisions == 0


def test_down_nic_neither_sends_nor_receives():
    sim, segment, nics, inboxes = build()
    nics[1].up = False
    nics[0].send(frame(nics[0], nics[1]))
    nics[1].send(frame(nics[1], nics[0]))
    sim.run()
    assert inboxes[1] == []
    assert inboxes[0] == []


def test_detached_nic_gets_nothing():
    sim, segment, nics, inboxes = build()
    nics[1].detach()
    nics[0].send(frame(nics[0], nics[1]))
    sim.run()
    assert inboxes[1] == []


def test_broadcast_reaches_everyone():
    from repro.net.addresses import BROADCAST_MAC

    sim, segment, nics, inboxes = build()
    nics[0].send(EthernetFrame(nics[0].mac, BROADCAST_MAC, 0x0806, FakePayload(28)))
    sim.run()
    assert len(inboxes[1]) == 1 and len(inboxes[2]) == 1


def test_rx_drop_hook_drops_selected_frames():
    sim, segment, nics, inboxes = build()
    nics[1].rx_drop_hook = lambda f: True
    nics[0].send(frame(nics[0], nics[1]))
    sim.run()
    assert inboxes[1] == []
    assert nics[1].frames_dropped_injected == 1
