"""Unit tests for the Host glue: CPU model, crash semantics, bridge hooks."""

import random

from repro.net.addresses import Ipv4Address
from repro.net.host import Cpu, Host
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.sim.engine import Simulator
from tests.util import TwoHostLan, mac


def test_cpu_serializes_work():
    sim = Simulator()
    cpu = Cpu(sim)
    done = []
    cpu.run(10e-6, lambda: done.append(sim.now))
    cpu.run(10e-6, lambda: done.append(sim.now))
    sim.run()
    assert abs(done[0] - 10e-6) < 1e-12
    assert abs(done[1] - 20e-6) < 1e-12


def test_cpu_idle_gap_resets_queue():
    sim = Simulator()
    cpu = Cpu(sim)
    done = []
    cpu.run(10e-6, lambda: done.append(sim.now))
    sim.run()
    # schedule() is relative to the current clock (10 us after start).
    sim.schedule(1.0, lambda: cpu.run(10e-6, lambda: done.append(sim.now)))
    sim.run()
    assert abs(done[1] - (done[0] + 1.0 + 10e-6)) < 1e-9


def test_cpu_jitter_increases_cost():
    sim = Simulator()
    cpu = Cpu(sim, jitter=1.0, rng=random.Random(1))
    done = []
    cpu.run(10e-6, lambda: done.append(sim.now))
    sim.run()
    assert 10e-6 < done[0] <= 20.0001e-6


def test_cpu_spikes_add_cost():
    sim = Simulator()
    cpu = Cpu(sim, rng=random.Random(1), spike_prob=1.0, spike_cost=100e-6)
    done = []
    cpu.run(10e-6, lambda: done.append(sim.now))
    sim.run()
    assert done[0] > 50e-6


def test_busy_time_accumulates():
    sim = Simulator()
    cpu = Cpu(sim)
    cpu.run(5e-6, lambda: None)
    cpu.run(5e-6, lambda: None)
    sim.run()
    assert abs(cpu.busy_time - 10e-6) < 1e-12


def test_cpu_gauges_follow_every_run_with_a_live_registry():
    """``run`` skips its gauge updates only for the inert NULL_METRICS."""
    sim = Simulator()
    registry = MetricsRegistry()
    cpu = Cpu(sim, metrics=registry, owner="h")
    busy = registry.gauge("cpu.busy_seconds", host="h")
    backlog = registry.gauge("cpu.backlog_peak", host="h")
    cpu.run(30e-6, lambda: None)
    assert (busy.value, backlog.value, backlog.high_watermark) == (30e-6, 30e-6, 30e-6)
    cpu.run(10e-6, lambda: None)
    assert busy.value == 30e-6 + 10e-6
    assert backlog.value == backlog.high_watermark == 30e-6 + 10e-6
    sim.run()
    # Idle again: the next job's backlog is its own cost, the peak stays.
    cpu.run(5e-6, lambda: None)
    assert busy.value == cpu.busy_time == 30e-6 + 10e-6 + 5e-6
    assert abs(backlog.value - 5e-6) < 1e-12
    assert backlog.high_watermark == 30e-6 + 10e-6

    unmetered = Cpu(sim)
    unmetered.run(5e-6, lambda: None)
    assert unmetered.busy_time == 5e-6
    assert NULL_METRICS.gauge("cpu.busy_seconds", host="cpu").value == 0.0


def test_host_default_rngs_differ_by_name():
    sim = Simulator()
    a = Host(sim, "alpha", mac(1))
    b = Host(sim, "beta", mac(2))
    assert a.tcp.choose_iss() != b.tcp.choose_iss()


def test_crash_stops_transport():
    lan = TwoHostLan()
    lan.server.crash()
    lan.client.tcp.connect(Ipv4Address("10.0.0.2"), 80)
    lan.run(until=2.0)
    # SYN goes out, nothing comes back; no established connections anywhere.
    assert lan.server.tcp.established_count() == 0
    assert lan.client.tcp.established_count() == 0


def test_crash_emits_trace():
    lan = TwoHostLan()
    lan.server.crash()
    assert lan.tracer.count("host.crash") == 1


def test_transport_out_charges_cpu():
    lan = TwoHostLan(tx_segment_cost=100e-6)
    lan.client.tcp.connect(Ipv4Address("10.0.0.2"), 80)
    lan.run(until=0.00005)
    # The SYN is still queued behind the CPU cost at t=50us.
    assert lan.server.tcp.established_count() == 0
    assert lan.client.cpu.busy_time > 0


def test_install_and_remove_bridge():
    lan = TwoHostLan()

    class NullBridge:
        def __init__(self):
            self.outgoing = 0

        def segment_from_tcp(self, segment, src, dst):
            self.outgoing += 1
            return False  # pass through

        def datagram_from_ip(self, dgram):
            return dgram

    bridge = NullBridge()
    lan.client.install_bridge(bridge)
    conn = lan.client.tcp.connect(Ipv4Address("10.0.0.2"), 80)
    lan.run(until=1.0)
    assert bridge.outgoing >= 1
    lan.client.remove_bridge()
    assert lan.client.bridge is None
