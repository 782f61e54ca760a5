"""The virtual-service dispatcher: one advertised IP, N shards behind it.

A :class:`VirtualService` turns a forwarding host (a
:class:`repro.net.router.Router`) into an L4 load balancer.  The host
owns the advertised **virtual IP** on the front LAN and has one leg on
each shard LAN; the service installs itself as the host's IP rx-tap and
NATs in both directions:

* client → VIP: pick the shard by rendezvous hash of the client side of
  the 4-tuple (pinned in a flow table so every later segment of the flow
  — including retransmissions during a shard's failover — lands on the
  same shard), rewrite ``dst`` from the VIP to the shard's service
  address, and let the normal forwarding path carry it onto the shard
  LAN;
* shard → client: rewrite ``src`` from the shard service address back to
  the VIP, so the client only ever converses with the advertised IP.

Both rewrites use :func:`repro.tcp.segment.incremental_rewrite`, the
same RFC 1624-style checksum fixup the failover bridge uses — the
receiving TCP revalidates every checksum, so a NAT bug here is loudly
visible, not silently absorbed.

Failover stays **shard-local by construction**: the shard's service
address never changes when its secondary takes over (§5 moves the
address between replicas, not to a new one), so the dispatcher's flow
table and backend map need no updates — only the shard-LAN ARP entry
moves, via the same gratuitous ARP the paper's router honours after
interval T (modelled by the host's ``gratuitous_apply_delay``).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cluster.flowtable import FlowId, FlowTable
from repro.cluster.hashing import choose_shard, flow_key
from repro.net.addresses import Ipv4Address
from repro.net.host import Host
from repro.net.packet import IPPROTO_TCP, Ipv4Datagram
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.spans import flow_key as span_flow_key
from repro.tcp.segment import FLAG_ACK, FLAG_SYN, TcpSegment, incremental_rewrite

__all__ = ["FlowId", "FlowTable", "VirtualService"]


class VirtualService:
    """L4 NAT steering for one advertised service address."""

    def __init__(
        self,
        host: Host,
        virtual_ip: Ipv4Address,
        service_port: int,
        backends: Dict[str, Ipv4Address],
        metrics: Optional[MetricsRegistry] = None,
    ):
        if not backends:
            raise ValueError("VirtualService needs at least one backend shard")
        if not host.ip.forwarding:
            raise ValueError(
                f"{host.name}: dispatcher host must have IP forwarding enabled"
            )
        self.host = host
        self.sim = host.sim
        self.virtual_ip = virtual_ip
        self.service_port = service_port
        self.backends: Dict[str, Ipv4Address] = dict(backends)
        self._backend_ip_values = {ip.value for ip in self.backends.values()}
        # Table limits; an experiment that probes exhaustion sets these.
        self.flow_idle_timeout = 30.0
        self.max_flows = 65536
        # Flow-poison hardening: a spoofed initial SYN for a *live* pinned
        # flow must not re-steer it (that tears the victim's connection off
        # its shard mid-stream).  Re-steer on SYN only when the pinned
        # backend has left the placement or the flow has been idle at least
        # this long (a genuinely closed-and-reopened client port).
        self.syn_reassign_min_idle = 1.0
        self.flows: FlowTable = FlowTable()
        self.new_flows: Dict[str, int] = {sid: 0 for sid in self.backends}
        self.segments_in = 0
        self.segments_out = 0
        self.segments_dropped = 0
        self.syn_reassigns_refused = 0
        self.flows_rejected = 0
        metrics = metrics or NULL_METRICS
        self._m_in = metrics.counter("dispatcher.segments_in")
        self._m_out = metrics.counter("dispatcher.segments_out")
        self._m_flows = metrics.gauge("dispatcher.flows")
        self._m_flows_rejected = metrics.counter("dispatcher.flows_rejected")
        host.ip.set_rx_tap(self._tap)

    # ------------------------------------------------------------------
    # placement view
    # ------------------------------------------------------------------

    def shard_of(self, client_ip: Ipv4Address, client_port: int) -> Optional[str]:
        """Which shard this client flow is (or would be) steered to."""
        slot = self.flows.slot_of((client_ip.value, client_port))
        if slot >= 0:
            return self.flows.shard_at(slot)
        return choose_shard(
            flow_key(client_ip, client_port), list(self.backends)
        )

    def flow_count(self) -> int:
        return len(self.flows)

    def add_backend(self, shard_id: str, service_ip: Ipv4Address) -> None:
        """Admit a shard to the steering set (new flows only; pins hold)."""
        self.backends[shard_id] = service_ip
        self._backend_ip_values.add(service_ip.value)
        self.new_flows.setdefault(shard_id, 0)

    def remove_backend(self, shard_id: str) -> None:
        """Drop a shard from the steering set.

        Existing pinned flows keep their placement (their segments still
        rewrite toward the shard's address — tearing down live
        connections is the fleet's decision, not the dispatcher's); only
        *new* flows re-steer, and by the rendezvous property exactly the
        removed shard's keys move.
        """
        ip = self.backends.pop(shard_id, None)
        if ip is not None and not any(
            other.value == ip.value for other in self.backends.values()
        ):
            self._backend_ip_values.discard(ip.value)

    # ------------------------------------------------------------------
    # datapath
    # ------------------------------------------------------------------

    def _tap(self, datagram: Ipv4Datagram) -> Optional[Ipv4Datagram]:
        if datagram.protocol != IPPROTO_TCP or not isinstance(
            datagram.payload, TcpSegment
        ):
            return datagram
        segment = datagram.payload
        if (
            datagram.dst == self.virtual_ip
            and segment.dst_port == self.service_port
        ):
            return self._steer_inbound(datagram, segment)
        if (
            datagram.src.value in self._backend_ip_values
            and segment.src_port == self.service_port
        ):
            return self._rewrite_return(datagram, segment)
        return datagram

    def _steer_inbound(
        self, datagram: Ipv4Datagram, segment: TcpSegment
    ) -> Optional[Ipv4Datagram]:
        flow_id = (datagram.src.value, segment.src_port)
        flows = self.flows
        slot = flows.slot_of(flow_id)
        is_initial_syn = bool(segment.flags & FLAG_SYN) and not (
            segment.flags & FLAG_ACK
        )
        steered = False
        if slot < 0:
            self._maybe_prune()
            if len(flows) >= self.max_flows:
                # Full even after pruning live pins' idle tail: refuse the
                # pin.  A spoofed-SYN flood must neither evict live flows
                # nor grow the table without bound.
                self.flows_rejected += 1
                self._m_flows_rejected.inc()
                self.segments_dropped += 1
                return None
            shard_id = choose_shard(
                flow_key(datagram.src, segment.src_port), list(self.backends)
            )
            steered = True
            slot = flows.pin(flow_id, shard_id, self.sim.now)
            self.new_flows[shard_id] = self.new_flows.get(shard_id, 0) + 1
            self._m_flows.set(len(flows))
        elif is_initial_syn:
            idle = self.sim.now - flows.last_seen_at(slot)
            if (
                flows.shard_at(slot) not in self.backends
                or idle >= self.syn_reassign_min_idle
            ):
                # A fresh SYN reusing a *quiet* flow id: re-steer it so a
                # closed-and-reopened client port follows the current
                # backend set.
                shard_id = choose_shard(
                    flow_key(datagram.src, segment.src_port), list(self.backends)
                )
                steered = True
                flows.reassign(slot, shard_id, self.sim.now)
            else:
                # Live flow: a SYN for it is either a client bug or an
                # off-path forgery; keep the pin (flow-poison hardening).
                self.syn_reassigns_refused += 1
                flows.touch(slot, self.sim.now)
        else:
            flows.touch(slot, self.sim.now)
        target = self.backends.get(flows.shard_at(slot))
        if target is None:
            # Pinned to a shard that has since been removed from the
            # placement: count the drop; the client's retransmission
            # machinery is the recovery path.
            self.segments_dropped += 1
            return None
        self.segments_in += 1
        self._m_in.inc()
        spans = self.host.spans
        if steered and spans.enabled:
            # The NAT rewrite changes the flow's 4-tuple on the shard LAN:
            # alias the shard-side key to the client-side trace so the
            # shard replicas' spans join the same tree.
            client_key = span_flow_key(
                datagram.src, segment.src_port,
                self.virtual_ip, segment.dst_port,
            )
            spans.alias_flow(
                span_flow_key(
                    datagram.src, segment.src_port, target, segment.dst_port
                ),
                client_key,
            )
            spans.flow_event(
                client_key, "dispatcher.steer", self.sim.now, self.host.name,
                shard=self.flows.shard_at(slot), backend=str(target),
            )
        rewritten = incremental_rewrite(
            segment, old_src=datagram.src, old_dst=self.virtual_ip, new_dst=target
        )
        return Ipv4Datagram(
            src=datagram.src,
            dst=target,
            protocol=IPPROTO_TCP,
            payload=rewritten,
            ttl=datagram.ttl,
        )

    def _rewrite_return(
        self, datagram: Ipv4Datagram, segment: TcpSegment
    ) -> Optional[Ipv4Datagram]:
        self.segments_out += 1
        self._m_out.inc()
        rewritten = incremental_rewrite(
            segment,
            old_src=datagram.src,
            old_dst=datagram.dst,
            new_src=self.virtual_ip,
        )
        return Ipv4Datagram(
            src=self.virtual_ip,
            dst=datagram.dst,
            protocol=IPPROTO_TCP,
            payload=rewritten,
            ttl=datagram.ttl,
        )

    def _maybe_prune(self) -> None:
        """Evict idle flows once the table is full (lazy, allocation-time)."""
        if len(self.flows) < self.max_flows:
            return
        self.flows.evict_idle(self.sim.now - self.flow_idle_timeout)
        self._m_flows.set(len(self.flows))

    def __repr__(self) -> str:
        return (
            f"VirtualService({self.virtual_ip}:{self.service_port},"
            f" shards={len(self.backends)}, flows={len(self.flows)})"
        )
