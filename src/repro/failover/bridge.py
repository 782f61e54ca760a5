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
``EVENTS`` table (:class:`EventSpec`) and every site calls
:meth:`BridgeBase._event`, which fans the event out to the plain counters
tests read, the metrics registry, the tracer and the span tracer
(DESIGN.md Appendix A is checked against the tables).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, NamedTuple, Optional, Tuple

from repro.net.addresses import Ipv4Address
from repro.net.packet import IPPROTO_TCP, Ipv4Datagram
from repro.obs.metrics import NULL_METRICS
from repro.obs.spans import NULL_SPANS, flow_key
from repro.tcp.segment import TcpSegment, incremental_rewrite

if TYPE_CHECKING:  # net.host imports tcp; keep the bridge layer cycle-free
    from repro.failover.core import BridgeConnection
    from repro.failover.options import FailoverConfig
    from repro.net.host import Host
    from repro.sim.trace import Tracer


class EventSpec(NamedTuple):
    """What each consumer does with one named event.  Field names refer to
    the keyword arguments of the :meth:`BridgeBase._event` call."""

    #: plain counter attribute on the bridge, created at 0 (tests and
    #: benchmarks read it)
    stat: Optional[str] = None
    #: counters: (metric name, field holding the amount — None counts 1)
    counters: Tuple[Tuple[str, Optional[str]], ...] = ()
    #: histograms: (metric name, field observed, extra labels)
    histograms: Tuple[Tuple[str, str, Mapping[str, str]], ...] = ()
    #: trace category, then its detail fields in dump order
    trace: Tuple[str, ...] = ()
    #: span flow event, then its attribute fields
    span: Tuple[str, ...] = ()
    #: attribute holding an optional ``callable(key)`` the event notifies
    hook: Optional[str] = None

    def fields(self) -> Tuple[str, ...]:
        """Every field the row reads, once each: the trace's, then the rest."""
        reads = self.trace[1:] + self.span[1:]
        reads += tuple(amount for _, amount in self.counters if amount)
        reads += tuple(seen for _, seen, _ in self.histograms)
        return tuple(dict.fromkeys(reads))


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


class BridgeBase:
    """Shared plumbing for the primary and secondary bridges."""

    #: name -> :class:`EventSpec`; each bridge class declares its own.
    EVENTS: Dict[str, EventSpec] = {}

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
        # The table bound to this host: metric names become labelled
        # instruments — none at all under the inert registry, so a
        # per-segment event makes no calls that do nothing (``Cpu.run``
        # does the same) — and an event that only traces, as most
        # per-segment ones do, carries nothing else.
        label = host.name
        metered = self.metrics is not NULL_METRICS
        self._events = {}
        for name, event in self.EVENTS.items():
            if event.stat:
                setattr(self, event.stat, 0)
            # A site passes exactly the fields its row reads, the trace's
            # first and in the table's order (tests/failover/test_events.py
            # holds every site to it): where no other consumer reads more,
            # the keyword dict already is the record's detail.
            detail = event.trace[1:] if event.fields() != event.trace[1:] else None
            category = event.trace[0] if event.trace else None
            if not metered:
                event = event._replace(counters=(), histograms=())
            rest = None
            if event._replace(trace=()) != EventSpec():
                rest = (
                    event.stat,
                    tuple(
                        (self.metrics.counter(metric, host=label), amount)
                        for metric, amount in event.counters
                    ),
                    tuple(
                        (self.metrics.histogram(metric, host=label, **labels), seen)
                        for metric, seen, labels in event.histograms
                    ),
                    event.span,
                    event.hook,
                )
            self._events[name] = (category, detail, rest)

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

    def _event(
        self, name: str, bc: Optional["BridgeConnection"] = None, **fields: object
    ) -> None:
        """The layer's one emission point: ``name`` happened (on ``bc``, if
        it concerns a connection).  A callable field is a deferred
        renderer: the tracer calls it only if the record is observed, the
        span tracer only if spans are on."""
        category, detail, rest = self._events[name]
        if category:
            traced = fields if detail is None else {key: fields[key] for key in detail}
            self.tracer.emit(self.sim.now, category, self.host.name, **traced)
        if rest is None:
            return
        stat, counters, histograms, span, hook = rest
        if stat:
            self.__dict__[stat] += 1  # per segment: no getattr/setattr pair
        for counter, amount in counters:
            counter.inc(fields[amount] if amount else 1)
        for histogram, seen in histograms:
            histogram.observe(fields[seen])
        if span and self.spans.enabled:
            attrs = {}
            for key in span[1:]:
                value = fields[key]
                attrs[key] = value() if callable(value) else value
            self.spans.flow_event(
                # The peer-facing flow this connection's spans attach to.
                flow_key(bc.peer_ip, bc.peer_port, bc.local_ip, bc.local_port),
                span[0], self.sim.now, self.host.name, **attrs,
            )
        if hook:
            callback = getattr(self, hook)
            if callback is not None:
                callback(bc.key)
