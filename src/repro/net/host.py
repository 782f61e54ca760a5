"""Host: NIC + ARP + IP + TCP glued together, with a CPU cost model.

The paper's absolute numbers come from real 566 MHz (servers) and 1 GHz
(client) machines.  We model per-segment protocol-processing cost with a
serialising CPU: every inbound and outbound TCP segment occupies the CPU
for ``fixed + per_byte × payload`` seconds (plus optional jitter).  The
harness calibrates these constants once so the standard-TCP baseline lands
near the paper's medians; every failover-vs-standard *ratio* then emerges
from the mechanism, not from tuning.

The host is also the interposition point for the failover bridge: outbound
TCP segments pass through :meth:`Host.transport_out` (bridge first, IP
second) and inbound datagrams pass the IP layer's rx tap (§1: the bridge
resides "between the TCP layer and the IP layer").
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional

from repro.net.addresses import Ipv4Address, MacAddress
from repro.net.ethernet import EthernetSegment
from repro.net.ip import EthernetInterface, IpLayer, PointToPointInterface
from repro.net.nic import Nic
from repro.net.packet import (
    IPPROTO_HEARTBEAT,
    IPPROTO_ICMP,
    IPPROTO_TCP,
    IcmpFragNeeded,
    Ipv4Datagram,
)
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.spans import NULL_SPANS, SpanTracer
from repro.sim.engine import Simulator
from repro.sim.process import Process, spawn
from repro.sim.rng import fork_rng, seeded_rng
from repro.sim.trace import Tracer
from repro.tcp.connection import ConnectionReset
from repro.tcp.layer import TcpLayer


@dataclass(frozen=True)
class HostProfile:
    """Protocol-processing cost model for one machine class.

    The defaults are the uncalibrated machine: a flat 40 µs per segment,
    no jitter, no spikes.  ``bridge_cost`` is the failover bridge's
    per-segment interposition cost on this machine and ``emit_cost`` the
    cost of constructing one outgoing client segment (incremental
    checksum etc.); every bridge reads them from its host.
    """

    rx_segment_cost: float = 40e-6
    rx_byte_cost: float = 0.0
    tx_segment_cost: float = 40e-6
    tx_byte_cost: float = 0.0
    cpu_jitter: float = 0.0
    cpu_spike_prob: float = 0.0
    cpu_spike_cost: float = 0.0
    app_write_fixed_cost: float = 0.0
    app_write_byte_cost: float = 0.0
    bridge_cost: float = 15e-6
    emit_cost: float = 25e-6


# Timing on the default machine is a pure function of the protocol, which
# is what the unit tests and the chaos cells want.
DEFAULT_PROFILE = HostProfile()


class Cpu:
    """Serialising FIFO processor with jitter and rare latency spikes.

    Jitter models run-to-run variation in protocol processing; spikes model
    the occasional interrupt/scheduling hiccup responsible for the gap
    between the paper's *median* and *maximum* latencies.
    """

    def __init__(
        self,
        sim: Simulator,
        jitter: float = 0.0,
        rng: Optional[random.Random] = None,
        spike_prob: float = 0.0,
        spike_cost: float = 0.0,
        metrics: Optional[MetricsRegistry] = None,
        owner: str = "cpu",
    ):
        self.sim = sim
        self.jitter = jitter
        self.rng = rng or seeded_rng(0)
        self.spike_prob = spike_prob
        self.spike_cost = spike_cost
        self._busy_until = 0.0
        self.busy_time = 0.0
        metrics = metrics or NULL_METRICS
        # run() is per segment: with the inert registry it skips the two
        # gauge updates instead of making two calls that do nothing.
        self._metered = metrics is not NULL_METRICS
        self._m_busy = metrics.gauge("cpu.busy_seconds", host=owner)
        self._m_backlog = metrics.gauge("cpu.backlog_peak", host=owner)

    def run(self, cost: float, fn: Callable[..., None], *args: Any) -> None:
        """Execute ``fn(*args)`` after queueing for ``cost`` CPU seconds."""
        if self.jitter > 0:
            cost *= 1.0 + self.jitter * self.rng.random()
        if self.spike_prob > 0 and self.rng.random() < self.spike_prob:
            cost += self.spike_cost * (0.5 + self.rng.random())
        now = self.sim.now
        start = max(now, self._busy_until)
        self._busy_until = done = start + cost
        self.busy_time += cost
        if self._metered:
            self._m_busy.add(cost)
            self._m_backlog.set(done - now)
        self.sim.call_at(done, fn, *args)

    @property
    def backlog(self) -> float:
        return max(0.0, self._busy_until - self.sim.now)


class Host:
    """An end host (or the base of a router) in the simulated network."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        mac: MacAddress,
        tracer: Optional[Tracer] = None,
        rng: Optional[random.Random] = None,
        profile: HostProfile = DEFAULT_PROFILE,
        forwarding: bool = False,
        gratuitous_apply_delay: float = 0.0,
        metrics: Optional[MetricsRegistry] = None,
        spans: Optional[SpanTracer] = None,
    ):
        self.sim = sim
        self.name = name
        self.tracer = tracer or Tracer(record=False)
        self.metrics = metrics or NULL_METRICS
        self.spans = spans or NULL_SPANS
        # Default seed derives from the host name so two hosts never share
        # RNG state by accident (distinct ISS choices matter to the bridge).
        self.rng = rng or seeded_rng(zlib.crc32(name.encode()))
        self.profile = profile
        # Copies of the profile's per-segment costs: read on every segment.
        self.rx_segment_cost = profile.rx_segment_cost
        self.rx_byte_cost = profile.rx_byte_cost
        self.tx_segment_cost = profile.tx_segment_cost
        self.tx_byte_cost = profile.tx_byte_cost
        # Cost of the application's send() call itself (syscall + copy into
        # the socket buffer) — what the paper's Fig. 3 actually times.
        self.app_write_fixed_cost = profile.app_write_fixed_cost
        self.app_write_byte_cost = profile.app_write_byte_cost
        self.gratuitous_apply_delay = gratuitous_apply_delay
        self.alive = True
        self.cpu = Cpu(
            sim,
            jitter=profile.cpu_jitter,
            rng=fork_rng(self.rng),
            spike_prob=profile.cpu_spike_prob,
            spike_cost=profile.cpu_spike_cost,
            metrics=self.metrics,
            owner=name,
        )
        self.nic = Nic(mac, name=f"{name}.nic")
        self.nic.set_receiver(self._frame_received)
        # Additional NICs (multi-homed hosts: the cluster dispatcher has
        # one leg on the front LAN and one per shard LAN).  ``self.nic``
        # stays the first/primary card for single-homed callers.
        self.nics: List[Nic] = [self.nic]
        self.ip = IpLayer(sim, name, tracer=self.tracer, forwarding=forwarding)
        self.tcp = TcpLayer(
            sim,
            node_name=name,
            local_ips=self.ip.owned_ips,
            transmit=self.transport_out,
            tracer=self.tracer,
            rng=fork_rng(self.rng),
            metrics=self.metrics,
            spans=self.spans,
        )
        self.ip.register_protocol(IPPROTO_TCP, self._tcp_datagram)
        # Back-reference for the socket facade's write-cost accounting.
        self.tcp.host = self
        self.bridge: Optional[object] = None
        self._eth_interface: Optional[EthernetInterface] = None
        self._heartbeat_handlers: List[Callable[[Ipv4Datagram], None]] = []
        self.ip.register_protocol(IPPROTO_HEARTBEAT, self._heartbeat_datagram)
        self.ip.register_protocol(IPPROTO_ICMP, self._icmp_datagram)
        # Step-down fencing: addresses this host still holds but has
        # yielded after observing a conflicting gratuitous ARP.  No
        # segment is sent from (or delivered to) a fenced address.
        self.fenced_ips: set = set()
        self._restart_hooks: List[Callable[["Host"], None]] = []
        self._crash_hooks: List[Callable[["Host"], None]] = []
        self._conflict_handlers: List[Callable[[Ipv4Address, MacAddress], None]] = []

    # -- topology wiring ---------------------------------------------------

    def attach_ethernet(
        self, segment: EthernetSegment, address: Ipv4Address
    ) -> EthernetInterface:
        """Join an Ethernet segment with the given address (every LAN is a /24).

        The first attachment uses the host's primary NIC; each further
        attachment (multi-homed hosts, e.g. a dispatcher fronting several
        shard LANs) brings up an additional card with a MAC derived from
        the primary's, so fleet topologies stay collision-free without
        every call site minting MACs.
        """
        if self.nic.segment is None:
            nic = self.nic
        else:
            index = len(self.nics)
            nic = Nic(
                MacAddress(self.nic.mac.value + 0x0100_0000 * index),
                name=f"{self.name}.nic{index}",
            )
            self.nics.append(nic)
        nic.attach(segment)
        interface = EthernetInterface(
            self.sim,
            nic,
            address,
            24,
            node_name=self.name,
            tracer=self.tracer,
            gratuitous_apply_delay=self.gratuitous_apply_delay,
        )
        nic.set_receiver(lambda frame, _iface=interface: self._frame_received_on(_iface, frame))
        self.ip.add_interface(interface)
        if self._eth_interface is None:
            self._eth_interface = interface
        interface.arp.conflict_callback = self._address_conflict
        return interface

    def attach_point_to_point(self, address: Ipv4Address) -> PointToPointInterface:
        """Create a /30 point-to-point (WAN) interface; wire it via WanLink.connect."""
        interface = PointToPointInterface(address, 30)
        self.ip.add_interface(interface)
        return interface

    @property
    def eth_interface(self) -> EthernetInterface:
        if self._eth_interface is None:
            raise RuntimeError(f"{self.name} has no Ethernet interface")
        return self._eth_interface

    def primary_ip(self) -> Ipv4Address:
        return self.ip.primary_address()

    # -- bridge interposition ------------------------------------------------

    def install_bridge(self, bridge: object) -> None:
        """Interpose a failover bridge between TCP and IP."""
        self.bridge = bridge
        self.ip.set_rx_tap(bridge.datagram_from_ip)

    def remove_bridge(self) -> None:
        self.bridge = None
        self.ip.set_rx_tap(None)

    # -- datapath ------------------------------------------------------------

    def transport_out(self, segment: object, src_ip: Ipv4Address, dst_ip: Ipv4Address) -> None:
        """TCP hands a segment down; charge CPU, then bridge, then IP."""
        if not self.alive or src_ip in self.fenced_ips:
            return
        cost = self.tx_segment_cost + self.tx_byte_cost * len(
            getattr(segment, "payload", b"")
        )
        self.cpu.run(cost, self._transport_out_ready, segment, src_ip, dst_ip)

    def _transport_out_ready(
        self, segment: object, src_ip: Ipv4Address, dst_ip: Ipv4Address
    ) -> None:
        if not self.alive:
            return
        if self.bridge is not None and self.bridge.segment_from_tcp(
            segment, src_ip, dst_ip
        ):
            return
        self.send_ip(segment, src_ip, dst_ip)

    def send_ip(self, segment: object, src_ip: Ipv4Address, dst_ip: Ipv4Address) -> None:
        """Emit a TCP segment as an IP datagram, bypassing the bridge."""
        if not self.alive or src_ip in self.fenced_ips:
            return
        self.ip.send(Ipv4Datagram(src=src_ip, dst=dst_ip, protocol=IPPROTO_TCP, payload=segment))

    def _frame_received(self, frame: object) -> None:
        if not self.alive:
            return
        if self._eth_interface is not None:
            self.ip.frame_received(self._eth_interface, frame)

    def _frame_received_on(self, interface: EthernetInterface, frame: object) -> None:
        """Per-interface delivery for multi-homed hosts."""
        if self.alive:
            self.ip.frame_received(interface, frame)

    def datagram_from_wan(self, datagram: Ipv4Datagram) -> None:
        """Delivery callback for point-to-point links."""
        if self.alive:
            self.ip.datagram_received(datagram)

    def _tcp_datagram(self, datagram: Ipv4Datagram) -> None:
        if datagram.dst in self.fenced_ips:
            return  # yielded address: stay silent, never RST the taker's peer
        segment = datagram.payload
        cost = self.rx_segment_cost + self.rx_byte_cost * len(
            getattr(segment, "payload", b"")
        )
        self.cpu.run(cost, self._tcp_deliver, datagram)

    def _tcp_deliver(self, datagram: Ipv4Datagram) -> None:
        if self.alive:
            self.tcp.receive_segment(datagram.payload, datagram.src, datagram.dst)

    # -- fault detector plumbing ----------------------------------------------

    def add_heartbeat_handler(self, handler: Callable[[Ipv4Datagram], None]) -> None:
        """Register a heartbeat consumer (several detectors may coexist)."""
        self._heartbeat_handlers.append(handler)

    def set_heartbeat_handler(self, handler: Callable[[Ipv4Datagram], None]) -> None:
        """Replace all heartbeat consumers with one (single-detector hosts)."""
        self._heartbeat_handlers = [handler]

    def remove_heartbeat_handler(self, handler: Callable[[Ipv4Datagram], None]) -> None:
        """Unregister one heartbeat consumer (detector teardown)."""
        if handler in self._heartbeat_handlers:
            self._heartbeat_handlers.remove(handler)

    def _icmp_datagram(self, datagram: Ipv4Datagram) -> None:
        if not self.alive or datagram.dst in self.fenced_ips:
            return
        payload = datagram.payload
        if isinstance(payload, IcmpFragNeeded):
            self.tcp.icmp_frag_needed(
                payload.quoted_src,
                payload.quoted_src_port,
                payload.quoted_dst,
                payload.quoted_dst_port,
                payload.quoted_seq,
                payload.mtu,
            )

    def _heartbeat_datagram(self, datagram: Ipv4Datagram) -> None:
        if not self.alive:
            return
        for handler in self._heartbeat_handlers:
            handler(datagram)

    def send_raw_datagram(self, datagram: Ipv4Datagram) -> None:
        if self.alive:
            self.ip.send(datagram)

    # -- step-down fencing ------------------------------------------------------

    def add_address_conflict_handler(
        self, handler: Callable[[Ipv4Address, MacAddress], None]
    ) -> None:
        """Be notified after this host fences an address (post step-down)."""
        self._conflict_handlers.append(handler)

    def _address_conflict(self, ip: Ipv4Address, mac: MacAddress) -> None:
        """Another node gratuitously claimed an address we own.

        The only way that happens in the fail-stop model is a peer that
        (rightly or wrongly) declared us dead and took over.  Arguing
        would split the brain — two stacks answering for ``a_p`` with
        diverging TCP state — so the loser *yields*: it stops sending
        from, answering ARP for, and accepting segments to the address,
        and silently drops the TCBs homed on it (no RSTs: the taker has
        coherent replica state and continues the connections).
        """
        self.tracer.emit(
            self.sim.now, "host.address_conflict", self.name,
            ip=ip.__str__, claimed_by=mac.__str__,
        )
        self.fence_address(ip)
        for handler in self._conflict_handlers:
            handler(ip, mac)

    def fence_address(self, ip: Ipv4Address) -> None:
        """Yield ``ip``: silence every datapath touching it."""
        if ip in self.fenced_ips:
            return
        self.fenced_ips.add(ip)
        if self._eth_interface is not None:
            self._eth_interface.arp.fenced_ips.add(ip)
        dropped = 0
        for conn in list(self.tcp.connections.values()):
            if conn.local_ip == ip:
                # Destroy with an error so blocked application processes
                # wake; nothing reaches the wire (the fence blocks sends).
                conn._destroy(error=ConnectionReset(f"{self.name}: {ip} fenced"))
                dropped += 1
        for key in [k for k in self.tcp._lingering if k[0] == ip]:
            del self.tcp._lingering[key]
        self.tracer.emit(
            self.sim.now, "host.fenced", self.name, ip=ip.__str__, dropped=dropped
        )

    # -- lifecycle -------------------------------------------------------------

    def add_restart_hook(self, hook: Callable[["Host"], None]) -> None:
        """Run ``hook(host)`` after every :meth:`restart` (reintegration)."""
        self._restart_hooks.append(hook)

    def add_crash_hook(self, hook: Callable[["Host"], None]) -> None:
        """Run ``hook(host)`` on every :meth:`crash`.

        The hook runs *after* the host went silent, so it must not try to
        send anything through it.  In-flight multi-event procedures
        (reintegration) register one to abort instead of installing state
        on a corpse.
        """
        self._crash_hooks.append(hook)

    def remove_crash_hook(self, hook: Callable[["Host"], None]) -> None:
        """Deregister a crash hook; missing hooks are ignored."""
        try:
            self._crash_hooks.remove(hook)
        except ValueError:
            pass

    def spawn(self, generator: Generator, name: str = "") -> Process:
        return spawn(self.sim, generator, name=name or f"{self.name}.proc")

    def crash(self) -> None:
        """Fail-stop: the host goes silent (NICs down, no deliveries)."""
        self.alive = False
        for nic in self.nics:
            nic.up = False
        self.tracer.emit(self.sim.now, "host.crash", self.name)
        for hook in list(self._crash_hooks):
            hook(self)

    def restart(self) -> None:
        """Reboot after a crash: the NIC comes back, all TCP state is lost.

        Matches the paper's crash-fault model — a recovering machine holds
        no connection state, no promiscuous configuration, no installed
        bridge, and only its originally configured address (a taken-over
        ``a_p`` does not survive the reboot), so a reborn replica stays
        silent unless something addresses it directly.  Applications are
        not restarted.  What the dead incarnation owned is freed here, by
        reference counting alone: every TCB with its timers and buffers,
        the listeners, and each process blocked on one of those (in
        accept, recv, send or a close), which never resumes; the bridge
        goes once its pair lets go of it.  A process asleep on a timer
        still wakes, to a socket whose block is gone.  Registered restart
        hooks run last — reintegration planes use them to schedule
        re-admission.
        """
        self.tcp.forget_all()
        self.remove_bridge()
        for nic in self.nics:
            nic.promiscuous = False
        if self._eth_interface is not None:
            # Addresses acquired by takeover are configuration, not
            # hardware: a reboot forgets them.
            del self._eth_interface.addresses[1:]
            self._eth_interface.arp.fenced_ips.clear()
        self.fenced_ips.clear()
        self.alive = True
        for nic in self.nics:
            nic.up = True
        self.tracer.emit(self.sim.now, "host.restart", self.name)
        for hook in list(self._restart_hooks):
            hook(self)

    def __repr__(self) -> str:
        return f"Host({self.name}, ips={[str(i) for i in self.ip.owned_ips()]})"
