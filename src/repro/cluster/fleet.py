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

The fleet is a :class:`~repro.harness.topology.Lan` with no default
segment: it names a front segment and one per shard, gives the
dispatcher a leg on each, and lets the builder's one ARP-priming rule
warm every cache.  It also owns the per-shard :class:`MetricsRegistry`
instances the ``repro obs report --cluster`` rollup aggregates.
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
    SERVER_PROFILE,
    Lan,
)
from repro.net.addresses import Ipv4Address
from repro.net.ethernet import EthernetSegment
from repro.net.host import Host
from repro.obs.metrics import MetricsRegistry, NULL_METRICS, merge_registries

#: Advertised service address (front LAN) and port.
VIRTUAL_IP = Ipv4Address("10.0.0.100")
DISPATCHER_FRONT_IP = Ipv4Address("10.0.0.254")
CLUSTER_SERVICE_PORT = 8000

#: Highest client count before addresses collide with the VIP (.100).
MAX_CLIENTS = 64


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


class ShardedFleet(Lan):
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
    ):
        if shards <= 0:
            raise ValueError(f"need at least one shard, got {shards}")
        if not 0 < clients <= MAX_CLIENTS:
            raise ValueError(f"clients must be in 1..{MAX_CLIENTS}, got {clients}")
        # Tracing at rate 0 is the shared NULL_SPANS: no "obs.spans" rng
        # stream is ever created, so every other stream — and therefore
        # every artifact — is bit-identical to a fleet built without
        # tracing (registry streams are independently seed-derived).
        super().__init__(
            seed, record_traces=record_traces,
            metrics=MetricsRegistry() if enable_metrics else None,
            span_sample_rate=span_sample_rate,
            mac_base=FLEET_MAC_BASE, segment_name=None,
        )
        self.seed = seed
        self.service_port = service_port
        self.virtual_ip = VIRTUAL_IP
        self.enable_metrics = enable_metrics
        self.front_metrics = self.metrics

        # Every fleet segment is collision-free; the front one is the default.
        self.front_segment = self.add_segment("front")
        self.dispatcher = self.add_router("dispatcher", 0)
        self.attach(self.dispatcher, DISPATCHER_FRONT_IP)
        self.dispatcher.eth_interface.add_address(self.virtual_ip)
        self.clients: List[Host] = [
            self.add_host(
                f"client{i}", 1 + i, Ipv4Address(f"10.0.0.{1 + i}"), CLIENT_PROFILE
            )
            for i in range(clients)
        ]

        self.shards: List[Shard] = []
        for s in range(shards):
            shard_metrics = MetricsRegistry() if enable_metrics else NULL_METRICS
            name = f"shard{s}"
            segment = self.add_segment(name, metrics=shard_metrics)
            primary, secondary = (
                self.add_host(
                    f"{role}{s}", 100 + 2 * s + k, Ipv4Address(f"10.{32 + s}.0.{2 + k}"),
                    SERVER_PROFILE, segment=name, metrics=shard_metrics,
                )
                for k, role in enumerate("pb")
            )
            gateway_ip = Ipv4Address(f"10.{32 + s}.0.254")
            self.attach(self.dispatcher, gateway_ip, name)
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
                Shard(f"s{s}", segment, primary, secondary, pair, shard_metrics)
            )

        self.service = VirtualService(
            self.dispatcher,
            self.virtual_ip,
            service_port,
            {shard.shard_id: shard.service_ip for shard in self.shards},
            metrics=self.front_metrics if enable_metrics else None,
        )
        self.warm_arp()

    def run_reply_service(self, backlog: int = 64) -> None:
        """Run the request/reply app, replicated, on every shard."""
        port = self.service_port

        def factory(host: Host) -> Generator:
            return reply_server(host, port, backlog=backlog)

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

    def attach_invariant_checker(self) -> InvariantChecker:
        """One fleet-wide checker across every shard's primary bridge.

        Re-attaches automatically when a shard reintegrates (the rearm
        creates a fresh bridge object).
        """
        checker = InvariantChecker(tracer=self.tracer)
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

    def __repr__(self) -> str:
        return (
            f"ShardedFleet(shards={len(self.shards)},"
            f" clients={len(self.clients)}, vip={self.virtual_ip})"
        )
