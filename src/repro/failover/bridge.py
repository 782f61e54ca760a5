"""What every bridge shares: the two host hooks, the §3.1 address
rewrites, and the one place a bridge reports what happened.

A bridge interposes between the host's TCP and IP layers through two hooks
(see :mod:`repro.net.host` and :mod:`repro.net.ip`):

* ``segment_from_tcp(segment, src_ip, dst_ip) -> bool`` — called for every
  outgoing TCP segment; returning True means the bridge consumed it;
* ``datagram_from_ip(datagram) -> Optional[Ipv4Datagram]`` — called for
  every received datagram before local delivery; returning None consumes
  it, returning a (possibly rewritten) datagram continues normal delivery.

Telemetry has one spelling: a bridge class declares its named events in an
``EVENTS`` table and every site calls ``_event`` (:mod:`repro.obs.events`),
which fans the event out to the plain counters tests read, the metrics
registry, the tracer and the span tracer (DESIGN.md Appendix A is checked
against the tables).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.net.addresses import Ipv4Address
from repro.net.packet import IPPROTO_TCP, Ipv4Datagram
from repro.obs.events import EventSource, EventSpec
from repro.obs.metrics import NULL_METRICS
from repro.obs.spans import NULL_SPANS, FlowKey, flow_key
from repro.tcp.segment import TcpSegment, incremental_rewrite

if TYPE_CHECKING:  # net.host imports tcp; keep the bridge layer cycle-free
    from repro.failover.core import BridgeConnection
    from repro.failover.options import FailoverConfig
    from repro.net.host import Host
    from repro.sim.trace import Tracer


def translate_in(datagram: Ipv4Datagram, local: Ipv4Address) -> Ipv4Datagram:
    """§3.1 receive side: a snooped datagram re-addressed to ``local``
    (incremental checksum update), so "TCP assumes that C sent this
    segment directly to S"."""
    rewritten = incremental_rewrite(
        datagram.payload, old_src=datagram.src, old_dst=datagram.dst, new_dst=local
    )
    return Ipv4Datagram(datagram.src, local, datagram.protocol, rewritten, datagram.ttl)


def divert_out(
    segment: TcpSegment, src_ip: Ipv4Address, dst_ip: Ipv4Address, via: Ipv4Address
) -> TcpSegment:
    """§3.1 send side: a peer-bound segment re-addressed to the upstream
    bridge ``via``, the original destination carried in ORIG_DST."""
    return incremental_rewrite(
        segment, old_src=src_ip, old_dst=dst_ip, new_dst=via, orig_dst=dst_ip
    )


__all__ = ["BridgeBase", "EventSpec", "divert_out", "translate_in"]


class BridgeBase(EventSource):
    """Shared plumbing for the primary and secondary bridges."""

    def __init__(
        self,
        host: "Host",
        config: "FailoverConfig",
        tracer: Optional["Tracer"] = None,
        bridge_cost: float = 15e-6,
    ):
        self.host = host
        self.sim = host.sim
        self.config = config
        self.tracer = tracer or host.tracer
        self.metrics = getattr(host, "metrics", None) or NULL_METRICS
        self.spans = getattr(host, "spans", None) or NULL_SPANS
        self.bridge_cost = bridge_cost
        self._bind_events(self.metrics, host.name)

    def install(self) -> None:
        self.host.install_bridge(self)

    # -- hooks to override ---------------------------------------------------

    def segment_from_tcp(
        self, segment: TcpSegment, src_ip: Ipv4Address, dst_ip: Ipv4Address
    ) -> bool:
        raise NotImplementedError

    def datagram_from_ip(self, datagram: Ipv4Datagram) -> Optional[Ipv4Datagram]:
        raise NotImplementedError

    # -- helpers -------------------------------------------------------------

    def _connection_flag(
        self, local_ip: Ipv4Address, local_port: int, remote_ip: Ipv4Address, remote_port: int
    ) -> bool:
        """Did the application mark this connection via the socket option?"""
        conn = self.host.tcp.connections.get(
            (local_ip, local_port, remote_ip, remote_port)
        )
        return bool(conn is not None and conn.failover)

    def _listener_flag(self, local_port: int) -> bool:
        """§7 method 1 for passive sockets: a failover-marked listener
        designates every connection on its port."""
        listener = self.host.tcp.listeners.get(local_port)
        return bool(listener is not None and listener.failover)

    def _covers(self, local_port: int, conn_flag: bool) -> bool:
        return self.config.covers(local_port, conn_flag) or self._listener_flag(
            local_port
        )

    def _is_failover_outgoing(
        self, segment: TcpSegment, src_ip: Ipv4Address, dst_ip: Ipv4Address
    ) -> bool:
        flag = self._connection_flag(src_ip, segment.src_port, dst_ip, segment.dst_port)
        return self._covers(segment.src_port, flag)

    def _send_datagram(self, segment: TcpSegment, src_ip: Ipv4Address, dst_ip: Ipv4Address) -> None:
        """Emit a sealed segment directly at the IP layer (below the bridge)."""
        self.host.ip.send(
            Ipv4Datagram(src=src_ip, dst=dst_ip, protocol=IPPROTO_TCP, payload=segment)
        )

    def _flow(self, subject: "BridgeConnection") -> FlowKey:
        """The peer-facing flow this connection's spans attach to."""
        return flow_key(
            subject.peer_ip, subject.peer_port, subject.local_ip, subject.local_port
        )
