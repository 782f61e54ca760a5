"""Sharded fleet topology: N replicated pairs behind one dispatcher.

Physical layout (all simulated, one :class:`~repro.sim.engine.Simulator`)::

    client_0 ... client_M      10.0.0.0/24 (front LAN, owns the VIP)
        \\   |   /
         dispatcher            VirtualService on a forwarding Router
        /   |   \\
    shard LAN 0..N-1           10.(32+s).0.0/24, one Ethernet each
        |
    primary_s + secondary_s    ReplicatedServerPair (paper §3-§7)

Each shard is a complete instance of the paper's mechanism — its own
pair, bridge, detectors, takeover — on a private LAN, so a failover
storm (several primaries killed at once) plays out shard-locally: the
gratuitous ARP that moves a shard's service address only crosses that
shard's LAN, and the dispatcher's per-shard interface applies it after
``ROUTER_ARP_DELAY``, exactly like the paper's router (interval T).

The fleet also owns the per-shard :class:`MetricsRegistry` instances the
``repro obs report --cluster`` rollup aggregates.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional

from repro.apps.request_reply import reply_server, resume_reply_server
from repro.cluster.dispatcher import VirtualService
from repro.failover.replicated import ReplicatedServerPair
from repro.harness.invariants import InvariantChecker
from repro.harness.topology import (
    CLIENT_PROFILE,
    FLEET_MAC_BASE,
    ROUTER_ARP_DELAY,
    SERVER_PROFILE,
    make_host,
)
from repro.net.addresses import Ipv4Address, MacAddress
from repro.net.ethernet import EthernetSegment
from repro.net.host import Host
from repro.net.router import Router
from repro.obs.metrics import MetricsRegistry, NULL_METRICS, merge_registries
from repro.obs.spans import NULL_SPANS, SpanTracer
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer

#: Advertised service address (front LAN) and port.
VIRTUAL_IP = Ipv4Address("10.0.0.100")
DISPATCHER_FRONT_IP = Ipv4Address("10.0.0.254")
CLUSTER_SERVICE_PORT = 8000

#: Highest client count before addresses collide with the VIP (.100).
MAX_CLIENTS = 64


def _fleet_mac(index: int) -> MacAddress:
    # Dispatcher extra NICs derive their MACs from base+0 in a different
    # byte (see Host.attach_ethernet).
    return MacAddress(FLEET_MAC_BASE + index)


class Shard:
    """One replicated pair on its private LAN."""

    def __init__(
        self,
        shard_id: str,
        segment: EthernetSegment,
        primary: Host,
        secondary: Host,
        pair: ReplicatedServerPair,
        metrics: MetricsRegistry,
    ):
        self.shard_id = shard_id
        self.segment = segment
        self.primary = primary
        self.secondary = secondary
        self.pair = pair
        self.metrics = metrics

    @property
    def service_ip(self) -> Ipv4Address:
        return self.pair.service_ip

    def survivor(self) -> Optional[Host]:
        """The host currently serving the shard's address (None if none)."""
        if self.pair.failed_over:
            return self.secondary if self.secondary.alive else None
        return self.primary if self.primary.alive else None

    def health(self) -> Dict[str, object]:
        survivor = self.survivor()
        return {
            "shard": self.shard_id,
            "primary_alive": self.primary.alive,
            "secondary_alive": self.secondary.alive,
            "failed_over": self.pair.failed_over,
            "secondary_removed": self.pair.secondary_removed,
            "reintegrations": len(self.pair.reintegrations),
            "established": (
                survivor.tcp.established_count() if survivor is not None else 0
            ),
        }

    def __repr__(self) -> str:
        return f"Shard({self.shard_id}, service={self.service_ip})"


class ShardedFleet:
    """Build and operate the whole cluster in one object."""

    def __init__(
        self,
        shards: int = 8,
        clients: int = 4,
        seed: int = 0,
        service_port: int = CLUSTER_SERVICE_PORT,
        detector_interval: float = 0.010,
        detector_timeout: float = 0.050,
        enable_metrics: bool = False,
        record_traces: bool = False,
        auto_reintegrate: bool = False,
        span_sample_rate: float = 0.0,
        max_spans: Optional[int] = None,
    ):
        if shards <= 0:
            raise ValueError(f"need at least one shard, got {shards}")
        if not 0 < clients <= MAX_CLIENTS:
            raise ValueError(f"clients must be in 1..{MAX_CLIENTS}, got {clients}")
        self.sim = Simulator()
        self.seed = seed
        self.rng = RngRegistry(seed)
        self.tracer = Tracer(record=record_traces)
        self.service_port = service_port
        self.virtual_ip = VIRTUAL_IP
        self.enable_metrics = enable_metrics
        # Tracing at rate 0 is the shared NULL_SPANS: no "obs.spans" rng
        # stream is ever created, so every other stream — and therefore
        # every artifact — is bit-identical to a fleet built without
        # tracing (registry streams are independently seed-derived).
        if span_sample_rate > 0.0:
            self.spans: SpanTracer = SpanTracer(
                rng=self.rng.stream("obs.spans"),
                sample_rate=span_sample_rate,
                max_spans=max_spans,
            )
        else:
            self.spans = NULL_SPANS

        def registry() -> MetricsRegistry:
            return MetricsRegistry() if enable_metrics else NULL_METRICS

        self.front_metrics = registry()
        if enable_metrics:
            self.sim.set_metrics(self.front_metrics)

        # Every fleet segment is collision-free (the segment's default is not).
        self.front_segment = EthernetSegment(
            self.sim,
            name="front",
            collision_prob=0.0,
            tracer=self.tracer,
            rng=self.rng.stream("ethernet.front"),
            metrics=self.front_metrics if enable_metrics else None,
            spans=self.spans,
        )
        self.dispatcher = Router(
            self.sim,
            "dispatcher",
            _fleet_mac(0),
            tracer=self.tracer,
            rng=self.rng.stream("host.dispatcher"),
            gratuitous_apply_delay=ROUTER_ARP_DELAY,
            spans=self.spans,
        )
        front_iface = self.dispatcher.attach_ethernet(
            self.front_segment, DISPATCHER_FRONT_IP
        )
        front_iface.add_address(self.virtual_ip)
        self._front_iface = front_iface

        self.clients: List[Host] = []
        for i in range(clients):
            client = make_host(
                self.sim, f"client{i}", _fleet_mac(1 + i), CLIENT_PROFILE,
                self.tracer, self.rng, self.front_metrics, self.spans,
            )
            client.attach_ethernet(
                self.front_segment, Ipv4Address(f"10.0.0.{1 + i}")
            )
            self.clients.append(client)

        self.shards: List[Shard] = []
        self._shard_ifaces = []
        for s in range(shards):
            shard_id = f"s{s}"
            shard_metrics = registry()
            segment = EthernetSegment(
                self.sim,
                name=f"shard{s}",
                collision_prob=0.0,
                tracer=self.tracer,
                rng=self.rng.stream(f"ethernet.shard{s}"),
                metrics=shard_metrics if enable_metrics else None,
                spans=self.spans,
            )
            primary = make_host(
                self.sim, f"p{s}", _fleet_mac(100 + 2 * s), SERVER_PROFILE,
                self.tracer, self.rng, shard_metrics, self.spans,
            )
            secondary = make_host(
                self.sim, f"b{s}", _fleet_mac(101 + 2 * s), SERVER_PROFILE,
                self.tracer, self.rng, shard_metrics, self.spans,
            )
            subnet = 32 + s
            primary.attach_ethernet(segment, Ipv4Address(f"10.{subnet}.0.2"))
            secondary.attach_ethernet(segment, Ipv4Address(f"10.{subnet}.0.3"))
            gateway_ip = Ipv4Address(f"10.{subnet}.0.254")
            shard_iface = self.dispatcher.attach_ethernet(segment, gateway_ip)
            primary.ip.set_default_gateway(gateway_ip)
            secondary.ip.set_default_gateway(gateway_ip)
            pair = ReplicatedServerPair(
                primary,
                secondary,
                failover_ports=(service_port,),
                detector_interval=detector_interval,
                detector_timeout=detector_timeout,
                auto_reintegrate=auto_reintegrate,
            )
            self.shards.append(
                Shard(shard_id, segment, primary, secondary, pair, shard_metrics)
            )
            self._shard_ifaces.append(shard_iface)

        self.service = VirtualService(
            self.dispatcher,
            self.virtual_ip,
            service_port,
            {shard.shard_id: shard.service_ip for shard in self.shards},
            metrics=self.front_metrics if enable_metrics else None,
        )
        self.warm_arp_caches()

    # ------------------------------------------------------------------
    # wiring helpers
    # ------------------------------------------------------------------

    def warm_arp_caches(self) -> None:
        """Prime every ARP relationship the steady-state datapath uses."""
        for client in self.clients:
            client.eth_interface.arp.prime(
                self.virtual_ip, self.dispatcher.nic.mac
            )
            self._front_iface.arp.prime(
                client.ip.primary_address(), client.nic.mac
            )
        for shard, iface in zip(self.shards, self._shard_ifaces):
            gateway_mac = iface.nic.mac
            iface.arp.prime(
                shard.primary.ip.primary_address(), shard.primary.nic.mac
            )
            iface.arp.prime(
                shard.secondary.ip.primary_address(), shard.secondary.nic.mac
            )
            for host in (shard.primary, shard.secondary):
                host.eth_interface.arp.prime(iface.address, gateway_mac)
            shard.primary.eth_interface.arp.prime(
                shard.secondary.ip.primary_address(), shard.secondary.nic.mac
            )
            shard.secondary.eth_interface.arp.prime(
                shard.primary.ip.primary_address(), shard.primary.nic.mac
            )

    def run_reply_service(
        self, backlog: int = 64, max_requests: Optional[int] = None
    ) -> None:
        """Run the request/reply app, replicated, on every shard."""
        port = self.service_port

        def factory(host: Host) -> Generator:
            return reply_server(host, port, max_requests=max_requests, backlog=backlog)

        self.run_app(factory, resume_app=resume_reply_server)

    def run_app(
        self,
        factory: Callable[[Host], Generator],
        resume_app: Optional[Callable] = None,
    ) -> None:
        for shard in self.shards:
            shard.pair.run_app(factory, name=f"app.{shard.shard_id}")
            if resume_app is not None:
                shard.pair.set_resume_app(resume_app)

    def start_detectors(self) -> None:
        for shard in self.shards:
            shard.pair.start_detectors()

    def attach_invariant_checker(
        self, checker: Optional[InvariantChecker] = None
    ) -> InvariantChecker:
        """One fleet-wide checker across every shard's primary bridge.

        Re-attaches automatically when a shard reintegrates (the rearm
        creates a fresh bridge object).
        """
        checker = checker or InvariantChecker()
        for shard in self.shards:
            checker.attach_primary_bridge(shard.pair.primary_bridge)
            shard.pair.on_reintegrated.append(
                lambda pair, _c=checker: _c.attach_primary_bridge(
                    pair.primary_bridge
                )
            )
        return checker

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------

    def storm(
        self,
        fraction: float = 0.25,
        shard_ids: Optional[List[str]] = None,
    ) -> List[str]:
        """Kill several primaries at once (a correlated failure burst).

        With ``shard_ids`` the selection is explicit; otherwise a
        deterministic sample of ``ceil(fraction * shards)`` shards is
        drawn from the fleet's ``cluster.storm`` RNG stream.  Returns
        the killed shard ids.
        """
        by_id = {shard.shard_id: shard for shard in self.shards}
        if shard_ids is None:
            count = max(1, int(fraction * len(self.shards) + 0.5))
            storm_rng = self.rng.stream("cluster.storm")
            shard_ids = sorted(
                storm_rng.sample(sorted(by_id), min(count, len(by_id)))
            )
        for shard_id in shard_ids:
            by_id[shard_id].pair.crash_primary()
        self.tracer.emit(
            self.sim.now, "cluster.storm", "fleet", killed=",".join(shard_ids)
        )
        return list(shard_ids)

    # ------------------------------------------------------------------
    # fleet views
    # ------------------------------------------------------------------

    def health(self) -> List[Dict[str, object]]:
        return [shard.health() for shard in self.shards]

    def failed_over_shards(self) -> List[str]:
        return [s.shard_id for s in self.shards if s.pair.failed_over]

    def established_connections(self) -> int:
        """Live server-side connections across all shard survivors."""
        total = 0
        for shard in self.shards:
            survivor = shard.survivor()
            if survivor is not None:
                total += survivor.tcp.established_count()
        return total

    def merged_metrics(self) -> MetricsRegistry:
        """The fleet rollup: per-shard registries + front plane, labelled."""
        sources = {shard.shard_id: shard.metrics for shard in self.shards}
        sources["front"] = self.front_metrics
        return merge_registries(sources, label="shard")

    def run(self, until: float) -> None:
        self.sim.run(until=until)

    def __repr__(self) -> str:
        return (
            f"ShardedFleet(shards={len(self.shards)},"
            f" clients={len(self.clients)}, vip={self.virtual_ip})"
        )
