"""The testbed builder: one shared Ethernet, the paper's §9 setup on it.

The paper's testbed: 566 MHz Pentium III Celeron servers running FreeBSD
4.4, a 1 GHz Pentium III client running Linux 2.2, all on 100 Mbit/s
(shared) Ethernet; the FTP experiment adds a wide-area path.

Our hosts are characterised by per-segment protocol-processing costs
(fixed + per-byte, see :class:`repro.net.host.Cpu`).  The constants below
were calibrated once so that the **standard-TCP baseline** reproduces the
paper's absolute numbers (connection setup ≈ 294 µs median; 100 MB stream
send ≈ 7.8 MB/s, receive ≈ 8.7 MB/s).  Nothing on the failover side is
tuned — the failover/standard ratios in EXPERIMENTS.md come out of the
mechanism.

Every single-segment testbed in the repo is a :class:`Lan`: the calibrated
:class:`LanTestbed` / :class:`WanTestbed`, the default-cost
:class:`TwoHostLan` / :class:`ReplicatedLan` / :class:`ChaosLan` the tests
and the chaos harness run on, the adversary plane's attacker LAN, E14's
client LAN and the chain-depth LAN.  :func:`make_host` is the only code
that turns a :class:`HostProfile` into a :class:`~repro.net.host.Host`
(the multi-segment :class:`~repro.cluster.fleet.ShardedFleet` uses it too).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, List, Optional

from repro.failover.replicated import ReplicatedServerPair
from repro.harness.invariants import InvariantChecker
from repro.net.addresses import Ipv4Address, MacAddress
from repro.net.ethernet import EthernetSegment
from repro.net.faults import FaultPlane
from repro.net.host import Host
from repro.net.router import Router
from repro.net.wan import WanLink
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.spans import NULL_SPANS, SpanTracer
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer


@dataclass(frozen=True)
class HostProfile:
    """Protocol-processing cost model for one machine class."""

    rx_segment_cost: float
    rx_byte_cost: float
    tx_segment_cost: float
    tx_byte_cost: float
    cpu_jitter: float
    cpu_spike_prob: float
    cpu_spike_cost: float
    app_write_fixed_cost: float = 0.0
    app_write_byte_cost: float = 0.0


# 566 MHz FreeBSD 4.4 server.  Calibration solves three equations against
# the paper's standard-TCP numbers (including the cost of generating one
# ACK per two data segments and ~5% average jitter):
#   inbound:  rx + rx_byte*1460 + tx/2 = 186 µs/segment  (7.83 MB/s send)
#   outbound: tx + tx_byte*1460 + rx/2 = 168 µs/segment  (8.71 MB/s recv)
#   connect:  client costs + wire + rx + tx ≈ 294 µs
SERVER_PROFILE = HostProfile(
    rx_segment_cost=79.3e-6,
    rx_byte_cost=0.0305e-6,
    tx_segment_cost=79.3e-6,
    tx_byte_cost=0.0181e-6,
    cpu_jitter=0.10,
    cpu_spike_prob=0.02,
    cpu_spike_cost=250e-6,
)

# 1 GHz Linux 2.2 client: proportionally faster.  The app-write costs are
# what the client's send() itself costs (Fig. 3's measured quantity).
CLIENT_PROFILE = HostProfile(
    rx_segment_cost=55e-6,
    rx_byte_cost=0.036e-6,
    tx_segment_cost=55e-6,
    tx_byte_cost=0.036e-6,
    cpu_jitter=0.10,
    cpu_spike_prob=0.02,
    cpu_spike_cost=180e-6,
    app_write_fixed_cost=15e-6,
    app_write_byte_cost=0.012e-6,
)

# The uncalibrated machine: a flat 40 µs per segment, no jitter, no spikes
# (``Host``'s own defaults).  Timing on it is a pure function of the
# protocol, which is what the unit tests and the chaos cells want.
DEFAULT_PROFILE = HostProfile(
    rx_segment_cost=40e-6,
    rx_byte_cost=0.0,
    tx_segment_cost=40e-6,
    tx_byte_cost=0.0,
    cpu_jitter=0.0,
    cpu_spike_prob=0.0,
    cpu_spike_cost=0.0,
)

# Bridge processing: the per-segment interposition cost and the cost of
# constructing one outgoing client segment (incremental checksum etc.).
BRIDGE_COST = 20e-6
EMIT_COST = 30e-6

# §5: time for an ARP-table holder to apply a gratuitous ARP.  For the
# router this is the paper's interval "T".
ROUTER_ARP_DELAY = 1.0e-3
CLIENT_ARP_DELAY = 0.5e-3

CLIENT_IP = Ipv4Address("10.0.0.1")
PRIMARY_IP = Ipv4Address("10.0.0.2")
SECONDARY_IP = Ipv4Address("10.0.0.3")
SINGLE_SERVER_IP = Ipv4Address("10.0.0.4")
ROUTER_LAN_IP = Ipv4Address("10.0.0.254")
ROUTER_WAN_IP = Ipv4Address("10.1.0.1")
WAN_CLIENT_IP = Ipv4Address("10.1.0.2")

# MAC plans: station ``index`` of a testbed sits at ``base + index``.  The
# fleet and E14 keep bases of their own so mixed topologies in one test
# file never collide.
LAN_MAC_BASE = 0x0200_0000_0000
FLEET_MAC_BASE = 0x0200_00AA_0000
CLIENT_TIER_MAC_BASE = 0x0200_00CE_0000


def make_host(
    sim: Simulator,
    name: str,
    mac: MacAddress,
    profile: HostProfile,
    tracer: Tracer,
    rng: RngRegistry,
    metrics: Optional[MetricsRegistry] = None,
    spans: Optional[SpanTracer] = None,
    gratuitous_apply_delay: float = 0.0,
) -> Host:
    """A host of machine class ``profile``, seeded from ``host.<name>``."""
    return Host(
        sim,
        name,
        mac,
        tracer=tracer,
        metrics=metrics,
        spans=spans,
        rng=rng.stream(f"host.{name}"),
        rx_segment_cost=profile.rx_segment_cost,
        rx_byte_cost=profile.rx_byte_cost,
        tx_segment_cost=profile.tx_segment_cost,
        tx_byte_cost=profile.tx_byte_cost,
        cpu_jitter=profile.cpu_jitter,
        cpu_spike_prob=profile.cpu_spike_prob,
        cpu_spike_cost=profile.cpu_spike_cost,
        app_write_fixed_cost=profile.app_write_fixed_cost,
        app_write_byte_cost=profile.app_write_byte_cost,
        gratuitous_apply_delay=gratuitous_apply_delay,
    )


class Lan:
    """One shared Ethernet segment and everything a run on it needs.

    Owns the simulator, the seeded RNG registry, the tracer, the metrics
    registry, the span tracer and the segment.  Stations join the bus in
    the order they are added, and all randomness (host ISS and CPU jitter,
    collisions, fault jitter, span sampling) derives from the one ``seed``
    through named streams (``ethernet``, ``host.<name>``, ``obs.spans``).
    """

    def __init__(
        self,
        seed: int = 0,
        collision_prob: float = 0.0,
        record_traces: bool = False,
        max_trace_records: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        span_sample_rate: float = 0.0,
        mac_base: int = LAN_MAC_BASE,
        segment_name: str = "lan",
    ):
        self.sim = Simulator()
        self.rng = RngRegistry(seed)
        self.tracer = Tracer(record=record_traces, max_records=max_trace_records)
        self.metrics = metrics or NULL_METRICS
        if metrics is not None:
            self.sim.set_metrics(metrics)
        self.spans: SpanTracer = NULL_SPANS  # rate 0 draws no rng stream
        if span_sample_rate > 0:
            self.spans = SpanTracer(
                sample_rate=span_sample_rate, rng=self.rng.stream("obs.spans")
            )
        self.mac_base = mac_base
        self.segment = EthernetSegment(
            self.sim,
            name=segment_name,
            collision_prob=collision_prob,
            tracer=self.tracer,
            rng=self.rng.stream("ethernet"),
            metrics=self.metrics,
        )
        self.hosts: List[Host] = []
        self.pair: Optional[ReplicatedServerPair] = None

    # -- stations --------------------------------------------------------

    def add_host(
        self,
        name: str,
        index: int,
        ip: Optional[Ipv4Address] = None,
        profile: HostProfile = DEFAULT_PROFILE,
        gratuitous_apply_delay: float = 0.0,
        conn_defaults: Optional[dict] = None,
    ) -> Host:
        """Station ``index`` (MAC ``mac_base + index``); a member at ``ip``,
        or left off the segment when ``ip`` is None."""
        host = make_host(
            self.sim, name, MacAddress(self.mac_base + index), profile,
            self.tracer, self.rng, metrics=self.metrics, spans=self.spans,
            gratuitous_apply_delay=gratuitous_apply_delay,
        )
        if conn_defaults:
            host.tcp.conn_defaults.update(conn_defaults)
        return host if ip is None else self.attach(host, ip)

    def attach(self, host: Host, ip: Ipv4Address) -> Host:
        """Put ``host`` on the segment as a member :meth:`warm_arp` covers."""
        host.attach_ethernet(self.segment, ip)
        self.hosts.append(host)
        return host

    def add_pair(
        self,
        failover_ports: Iterable[int],
        profile: HostProfile = DEFAULT_PROFILE,
        conn_defaults: Optional[dict] = None,
        **pair_kwargs,
    ) -> ReplicatedServerPair:
        """``primary`` (.2) and ``secondary`` (.3) and the pair over them."""
        self.primary = self.add_host(
            "primary", 2, PRIMARY_IP, profile, conn_defaults=conn_defaults
        )
        self.secondary = self.add_host(
            "secondary", 3, SECONDARY_IP, profile, conn_defaults=conn_defaults
        )
        self.pair = ReplicatedServerPair(
            self.primary, self.secondary, failover_ports=failover_ports,
            **pair_kwargs,
        )
        self.server_ip = self.pair.service_ip
        return self.pair

    def add_servers(
        self,
        replicated: bool,
        failover_ports: Iterable[int],
        conn_defaults: Optional[dict] = None,
        **pair_kwargs,
    ) -> List[Host]:
        """The calibrated service: a replicated pair, or one server at .4."""
        self.replicated = replicated
        if replicated:
            self.add_pair(
                failover_ports, SERVER_PROFILE, conn_defaults,
                bridge_cost=BRIDGE_COST, emit_cost=EMIT_COST, **pair_kwargs,
            )
            return [self.primary, self.secondary]
        self.server = self.add_host(
            "server", 4, SINGLE_SERVER_IP, SERVER_PROFILE,
            conn_defaults=conn_defaults,
        )
        self.server_ip = SINGLE_SERVER_IP
        return [self.server]

    def add_station(self, name: str, index: int, ip: Ipv4Address) -> Host:
        """One more default-cost station on the bus, outside the membership.

        It knows every member's MAC (it shares the segment, and could learn
        them passively) but no member knows its; :meth:`warm_arp` and
        :meth:`attach_checks` keep ignoring it.
        """
        station = self.add_host(name, index)
        station.attach_ethernet(self.segment, ip)
        for member in self.hosts:
            station.eth_interface.arp.prime(
                member.ip.primary_address(), member.nic.mac
            )
        return station

    def warm_arp(self) -> None:
        """Prime every ordered pair of members: the paper measures with warm
        caches, and ARP traffic would perturb timing."""
        for host in self.hosts:
            for other in self.hosts:
                if host is not other:
                    host.eth_interface.arp.prime(
                        other.ip.primary_address(), other.nic.mac
                    )

    # -- faults and invariants -------------------------------------------

    def attach_checks(self) -> None:
        """Wire the fault plane and the invariant checker onto the pair.

        The plane taps the shared segment (point ``"lan"``) and each
        member's receive path (``"nic:<name>"``), so rules can target the
        medium or one receiver; the checker wraps the primary bridge's
        emissions from the first segment on.
        """
        self.plane = FaultPlane(self.sim, rng=self.rng, tracer=self.tracer)
        self.plane.tap_segment(self.segment, point="lan")
        for host in self.hosts:
            self.plane.tap_nic(host.nic, point=f"nic:{host.name}")
        self.checker = InvariantChecker(tracer=self.tracer)
        self.checker.attach_primary_bridge(self.pair.primary_bridge)
        # After a reintegration the survivor's (possibly brand-new) merging
        # bridge must be checked too — every emission, from either epoch.
        self.pair.on_reintegrated.append(
            lambda pair: self.checker.attach_primary_bridge(pair.primary_bridge)
        )

    def finish_checks(self, node: str = "client") -> None:
        """Run the end-of-run invariants that need no stream data."""
        self.checker.check_no_peer_reset(node=node)
        self.checker.check_replica_agreement()

    def assert_invariants(self) -> None:
        self.checker.assert_ok(recipe=self.plane.recipe())

    # -- running ---------------------------------------------------------

    def start_detectors(self) -> None:
        if self.pair is not None:
            self.pair.start_detectors()

    def run(self, until: float = 30.0) -> None:
        self.sim.run(until=until)


class LanTestbed(Lan):
    """Client + servers on one shared 100 Mbit/s Ethernet segment."""

    def __init__(
        self,
        seed: int = 0,
        replicated: bool = True,
        failover_ports: Iterable[int] = (),
        collision_prob: float = 0.05,
        detector_interval: float = 0.010,
        detector_timeout: float = 0.050,
        client_arp_delay: float = CLIENT_ARP_DELAY,
        record_traces: bool = False,
        max_trace_records: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        conn_defaults: Optional[dict] = None,
        ack_merging: bool = True,
        window_merging: bool = True,
        takeover_resume_delay: float = 200e-6,
    ):
        super().__init__(
            seed, collision_prob=collision_prob, record_traces=record_traces,
            max_trace_records=max_trace_records, metrics=metrics,
        )
        self.client = self.add_host(
            "client", 1, CLIENT_IP, CLIENT_PROFILE,
            gratuitous_apply_delay=client_arp_delay, conn_defaults=conn_defaults,
        )
        self.add_servers(
            replicated,
            failover_ports,
            conn_defaults,
            detector_interval=detector_interval,
            detector_timeout=detector_timeout,
            ack_merging=ack_merging,
            window_merging=window_merging,
            takeover_resume_delay=takeover_resume_delay,
        )
        self.warm_arp()


class WanTestbed(Lan):
    """Client behind a WAN link; servers on the LAN behind a router.

    client == WAN ==> router == shared Ethernet ==> primary/secondary
    """

    def __init__(
        self,
        seed: int = 0,
        replicated: bool = True,
        failover_ports: Iterable[int] = (),
        wan_bandwidth_bps: float = 2e6,
        wan_delay: float = 0.020,
        wan_loss: float = 0.002,
        wan_cross_load: float = 0.4,
        router_arp_delay: float = ROUTER_ARP_DELAY,
        record_traces: bool = False,
        max_trace_records: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        super().__init__(
            seed, collision_prob=0.05, record_traces=record_traces,
            max_trace_records=max_trace_records, metrics=metrics,
        )
        self.router = Router(
            self.sim,
            "router",
            MacAddress(self.mac_base + 10),
            tracer=self.tracer,
            rng=self.rng.stream("host.router"),
            gratuitous_apply_delay=router_arp_delay,
        )
        self.attach(self.router, ROUTER_LAN_IP)
        router_wan_iface = self.router.attach_point_to_point(ROUTER_WAN_IP)

        # Off the segment: the client's only interface is the WAN link.
        self.client = self.add_host("client", 1, profile=CLIENT_PROFILE)
        client_wan_iface = self.client.attach_point_to_point(WAN_CLIENT_IP)
        self.client.ip.set_default_gateway(ROUTER_WAN_IP)

        self.wan = WanLink(
            self.sim,
            bandwidth_bps=wan_bandwidth_bps,
            propagation_delay=wan_delay,
            loss_prob=wan_loss,
            cross_load=wan_cross_load,
            rng=self.rng.stream("wan"),
            tracer=self.tracer,
        )
        self.wan.connect(
            client_wan_iface,
            router_wan_iface,
            deliver_a=self.client.datagram_from_wan,
            deliver_b=self.router.datagram_from_wan,
        )

        for server in self.add_servers(replicated, failover_ports):
            server.ip.set_default_gateway(ROUTER_LAN_IP)
        self.warm_arp()


def build_lan(**kwargs) -> LanTestbed:
    """Convenience constructor used by examples and benchmarks."""
    return LanTestbed(**kwargs)


def build_wan(**kwargs) -> WanTestbed:
    return WanTestbed(**kwargs)


# ----------------------------------------------------------------------
# default-cost testbeds: what the test suite and the chaos cells run on
# ----------------------------------------------------------------------
#
# Fast, collision-free, 40 µs/segment stations; the segment keeps the
# stack's default interface name, which the recorded traces carry.


class TwoHostLan(Lan):
    """Client and a single server on a fast, collision-free segment."""

    def __init__(
        self,
        seed: int = 0,
        record_traces: bool = True,
        max_trace_records: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        **host_costs: float,
    ):
        super().__init__(
            seed, record_traces=record_traces,
            max_trace_records=max_trace_records, metrics=metrics,
            segment_name="eth0",
        )
        profile = replace(DEFAULT_PROFILE, **host_costs)
        self.client = self.add_host("client", 1, CLIENT_IP, profile)
        self.server = self.add_host("server", 2, PRIMARY_IP, profile)
        self.warm_arp()


class ReplicatedLan(Lan):
    """Client + replicated primary/secondary pair, warm ARP, no collisions."""

    def __init__(
        self,
        seed: int = 0,
        failover_ports: Iterable[int] = (80,),
        record_traces: bool = True,
        max_trace_records: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        detector_interval: float = 0.005,
        detector_timeout: float = 0.020,
        client_arp_delay: float = 300e-6,
        **pair_kwargs,
    ):
        super().__init__(
            seed, record_traces=record_traces,
            max_trace_records=max_trace_records, metrics=metrics,
            segment_name="eth0",
        )
        self.client = self.add_host(
            "client", 1, CLIENT_IP, gratuitous_apply_delay=client_arp_delay
        )
        self.add_pair(
            failover_ports,
            detector_interval=detector_interval,
            detector_timeout=detector_timeout,
            **pair_kwargs,
        )
        self.warm_arp()


class ChaosLan(ReplicatedLan):
    """ReplicatedLan with the fault plane and invariant checker pre-wired
    (see :meth:`Lan.attach_checks`)."""

    def __init__(self, seed: int = 0, **kwargs):
        super().__init__(seed=seed, **kwargs)
        self.attach_checks()
