"""The one topology builder, and the paper's §9 testbed on it.

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

Every topology in the repo is built by :class:`Lan`: named segments,
hosts, routers with a leg per segment or on a WAN link, and one ARP
priming rule (:meth:`Lan.warm_arp`).  On it sit the calibrated
:class:`LanTestbed` / :class:`WanTestbed`, the default-cost
:class:`TwoHostLan` / :class:`ReplicatedLan` / :class:`ChaosLan` the tests
and the chaos harness run on, the adversary plane's attacker LAN, E14's
client LAN, the chain-depth LAN and the multi-segment
:class:`~repro.cluster.fleet.ShardedFleet`.  A machine class is a
:class:`~repro.net.host.HostProfile` (protocol and bridge costs).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Generator, Iterable, List, Optional

from repro.failover.replicated import ReplicatedServerPair
from repro.harness.invariants import InvariantChecker
from repro.net.addresses import Ipv4Address, MacAddress
from repro.net.ethernet import EthernetSegment
from repro.net.faults import FaultPlane
from repro.net.host import DEFAULT_PROFILE, Host, HostProfile
from repro.net.ip import EthernetInterface
from repro.net.router import Router
from repro.net.wan import WanLink
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.spans import NULL_SPANS, SpanTracer
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer


# 566 MHz FreeBSD 4.4 server.  Calibration solves three equations against
# the paper's standard-TCP numbers (including the cost of generating one
# ACK per two data segments and ~5% average jitter):
#   inbound:  rx + rx_byte*1460 + tx/2 = 186 µs/segment  (7.83 MB/s send)
#   outbound: tx + tx_byte*1460 + rx/2 = 168 µs/segment  (8.71 MB/s recv)
#   connect:  client costs + wire + rx + tx ≈ 294 µs
# The bridge's per-segment and per-emission costs were chosen, not fitted.
SERVER_PROFILE = HostProfile(
    rx_segment_cost=79.3e-6,
    rx_byte_cost=0.0305e-6,
    tx_segment_cost=79.3e-6,
    tx_byte_cost=0.0181e-6,
    cpu_jitter=0.10,
    cpu_spike_prob=0.02,
    cpu_spike_cost=250e-6,
    bridge_cost=20e-6,
    emit_cost=30e-6,
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


class Lan:
    """The one topology builder: named segments, hosts, routers, WAN links.

    Owns the simulator, the seeded RNG registry, the tracer, the metrics
    registry and the span tracer; every testbed in the repo, the fleet
    included, is built through it.  All randomness (host ISS and CPU
    jitter, collisions, WAN loss, span sampling) derives from the one
    ``seed`` through named streams: ``host.<name>``, ``ethernet`` for the
    default segment and ``ethernet.<name>`` for a named one, ``wan``,
    ``obs.spans`` (only when ``span_sample_rate`` is above 0).  Station
    ``index`` gets MAC ``mac_base + index``; stations join a segment in
    the order they are attached.  The first segment is the default one
    that ``segment=None`` means; ``segment_name=None`` builds none here, so
    a multi-segment topology's first :meth:`add_segment` names it.
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
        segment_name: Optional[str] = "lan",
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
                sample_rate=span_sample_rate, rng=self.rng.stream("obs.spans"),
            )
        self.mac_base = mac_base
        self.segments: Dict[str, EthernetSegment] = {}
        self._members: Dict[str, List[EthernetInterface]] = {}
        self.hosts: List[Host] = []
        self.pair: Optional[ReplicatedServerPair] = None
        if segment_name is not None:
            # The one-segment bus never carried spans; its artifacts stay as recorded.
            self.add_segment(
                segment_name, collision_prob, stream="ethernet", spans=NULL_SPANS
            )

    # -- segments and stations -------------------------------------------

    def add_segment(
        self,
        name: str,
        collision_prob: float = 0.0,
        metrics: Optional[MetricsRegistry] = None,
        stream: Optional[str] = None,
        spans: Optional[SpanTracer] = None,
    ) -> EthernetSegment:
        """Shared Ethernet ``name``, seeded from ``ethernet.<name>`` unless
        ``stream`` says otherwise; counts into ``metrics`` (default: the
        run's registry) and carries the run's span tracer.  The first one
        added is the default segment."""
        segment = EthernetSegment(
            self.sim,
            name=name,
            collision_prob=collision_prob,
            tracer=self.tracer,
            rng=self.rng.stream(stream or f"ethernet.{name}"),
            metrics=self.metrics if metrics is None else metrics,
            spans=self.spans if spans is None else spans,
        )
        if not self.segments:
            self.segment = segment
        self.segments[name] = segment
        self._members[name] = []
        return segment

    def add_host(
        self,
        name: str,
        index: int,
        ip: Optional[Ipv4Address] = None,
        profile: HostProfile = DEFAULT_PROFILE,
        gratuitous_apply_delay: float = 0.0,
        conn_defaults: Optional[dict] = None,
        segment: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> Host:
        """Station ``index`` of machine class ``profile``, seeded from
        ``host.<name>`` and counting into ``metrics`` (default: the run's
        registry); a member of ``segment`` at ``ip``, or on no segment
        when ``ip`` is None."""
        host = Host(
            self.sim,
            name,
            MacAddress(self.mac_base + index),
            tracer=self.tracer,
            metrics=self.metrics if metrics is None else metrics,
            spans=self.spans,
            rng=self.rng.stream(f"host.{name}"),
            profile=profile,
            gratuitous_apply_delay=gratuitous_apply_delay,
        )
        if conn_defaults:
            host.tcp.conn_defaults.update(conn_defaults)
        return host if ip is None else self.attach(host, ip, segment)

    def add_router(self, name: str, index: int) -> Router:
        """A forwarding station ``index`` that applies a gratuitous ARP after
        the paper's interval T, on no segment yet: give it a leg per
        segment with :meth:`attach` and a WAN leg with :meth:`add_wan`."""
        return Router(
            self.sim,
            name,
            MacAddress(self.mac_base + index),
            tracer=self.tracer,
            rng=self.rng.stream(f"host.{name}"),
            gratuitous_apply_delay=ROUTER_ARP_DELAY,
            spans=self.spans,
        )

    def attach(
        self, host: Host, ip: Ipv4Address, segment: Optional[str] = None
    ) -> Host:
        """Put ``host`` on ``segment`` (default: the default segment) at
        ``ip``, as a member :meth:`warm_arp` covers; a further leg of a
        multi-homed host gets a card of its own."""
        name = self.segment.name if segment is None else segment
        self._members[name].append(host.attach_ethernet(self.segments[name], ip))
        if host not in self.hosts:
            self.hosts.append(host)
        return host

    def add_wan(
        self, a: Host, a_ip: Ipv4Address, b: Host, b_ip: Ipv4Address, **link
    ) -> WanLink:
        """A point-to-point WAN link (stream ``wan``) from ``a`` to ``b``."""
        side_a = a.attach_point_to_point(a_ip)
        side_b = b.attach_point_to_point(b_ip)
        wan = WanLink(self.sim, rng=self.rng.stream("wan"), tracer=self.tracer, **link)
        wan.connect(
            side_a, side_b, deliver_a=a.datagram_from_wan, deliver_b=b.datagram_from_wan
        )
        return wan

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
                failover_ports, SERVER_PROFILE, conn_defaults, **pair_kwargs
            )
            return [self.primary, self.secondary]
        self.server = self.add_host(
            "server", 4, SINGLE_SERVER_IP, SERVER_PROFILE,
            conn_defaults=conn_defaults,
        )
        self.server_ip = SINGLE_SERVER_IP
        return [self.server]

    def add_station(
        self,
        name: str,
        index: int,
        ip: Ipv4Address,
    ) -> Host:
        """One more default-cost station on the default segment, outside the
        membership.

        It knows every address of every member there (it shares the
        segment, and could learn them passively) but no member knows its;
        :meth:`warm_arp` and :meth:`attach_checks` keep ignoring it.
        """
        station = self.add_host(name, index)
        station.attach_ethernet(self.segment, ip)
        for member in self._members[self.segment.name]:
            for address in member.addresses:
                station.eth_interface.arp.prime(address, member.nic.mac)
        return station

    def warm_arp(self) -> None:
        """The one priming rule: every member interface knows every address
        of every other member interface on a segment it shares.  The paper
        measures with warm caches, and ARP traffic would perturb timing."""
        for members in self._members.values():
            for iface in members:
                for other in members:
                    if other is not iface:
                        for address in other.addresses:
                            iface.arp.prime(address, other.nic.mac)

    # -- faults and invariants -------------------------------------------

    def attach_checks(self) -> None:
        """Wire the fault plane and the invariant checker onto the LAN.

        The plane taps the shared segment (point ``"lan"``) and each
        member's receive path (``"nic:<name>"``), so rules can target the
        medium or one receiver; the checker wraps the pair's primary
        bridge's emissions (if there is a pair) from the first segment on.
        """
        self.plane = FaultPlane(self.sim, rng=self.rng, tracer=self.tracer)
        self.plane.tap_segment(self.segment, point="lan")
        for host in self.hosts:
            self.plane.tap_nic(host.nic, point=f"nic:{host.name}")
        self.checker = InvariantChecker(tracer=self.tracer)
        if self.pair is not None:
            self.checker.attach_primary_bridge(self.pair.primary_bridge)
            # After a reintegration the survivor's (maybe new) merging
            # bridge is checked too: every emission, from either epoch.
            self.pair.on_reintegrated.append(
                lambda pair: self.checker.attach_primary_bridge(pair.primary_bridge)
            )

    def finish_checks(self) -> None:
        """Run the end-of-run invariants that need no stream data."""
        self.checker.check_no_peer_reset(node="client")
        self.checker.check_replica_agreement()

    def assert_invariants(self) -> None:
        self.checker.assert_ok(recipe=self.plane.recipe())

    # -- running ---------------------------------------------------------

    def serve(self, factory: Callable[[Host], Generator], name: str) -> None:
        """Run the service app ``factory(host)`` where :meth:`add_servers`
        put the service: on both replicas (``name@P``/``name@S``) or on the
        one server (``name``)."""
        if self.pair is not None:
            self.pair.run_app(factory, name)
        else:
            self.server.spawn(factory(self.server), name)

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
        detector_timeout: float = 0.050,
        client_arp_delay: float = CLIENT_ARP_DELAY,
        record_traces: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        conn_defaults: Optional[dict] = None,
        ack_merging: bool = True,
        window_merging: bool = True,
    ):
        super().__init__(
            seed, collision_prob=0.05, record_traces=record_traces, metrics=metrics,
        )
        self.client = self.add_host(
            "client", 1, CLIENT_IP, CLIENT_PROFILE,
            gratuitous_apply_delay=client_arp_delay, conn_defaults=conn_defaults,
        )
        self.add_servers(
            replicated,
            failover_ports,
            conn_defaults,
            detector_timeout=detector_timeout,
            ack_merging=ack_merging,
            window_merging=window_merging,
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
        wan_delay: float = 0.020,
        wan_loss: float = 0.002,
        wan_cross_load: float = 0.4,
        record_traces: bool = False,
    ):
        super().__init__(seed, collision_prob=0.05, record_traces=record_traces)
        self.router = self.add_router("router", 10)
        self.attach(self.router, ROUTER_LAN_IP)
        # Off the segment: the client's only interface is the WAN link.
        self.client = self.add_host("client", 1, profile=CLIENT_PROFILE)
        self.wan = self.add_wan(
            self.client, WAN_CLIENT_IP, self.router, ROUTER_WAN_IP,
            propagation_delay=wan_delay, loss_prob=wan_loss,
            cross_load=wan_cross_load,
        )
        self.client.ip.set_default_gateway(ROUTER_WAN_IP)

        for server in self.add_servers(replicated, failover_ports):
            server.ip.set_default_gateway(ROUTER_LAN_IP)
        self.warm_arp()


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
        metrics: Optional[MetricsRegistry] = None,
        **host_costs: float,
    ):
        super().__init__(
            seed, record_traces=record_traces, metrics=metrics, segment_name="eth0",
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
        metrics: Optional[MetricsRegistry] = None,
        client_arp_delay: float = 300e-6,
        **pair_kwargs,
    ):
        super().__init__(
            seed, record_traces=record_traces, metrics=metrics, segment_name="eth0",
        )
        self.client = self.add_host(
            "client", 1, CLIENT_IP, gratuitous_apply_delay=client_arp_delay
        )
        # Fast detection: these LANs' runs are short.
        self.add_pair(
            failover_ports, detector_interval=0.005, detector_timeout=0.020,
            **pair_kwargs,
        )
        self.warm_arp()


class ChaosLan(ReplicatedLan):
    """ReplicatedLan with the fault plane and invariant checker pre-wired
    (see :meth:`Lan.attach_checks`)."""

    def __init__(self, seed: int = 0, **kwargs):
        super().__init__(seed=seed, **kwargs)
        self.attach_checks()
