"""Per-host TCP layer: demultiplexing, listeners, connection table.

A TCP connection is identified by the 4-tuple (local IP, local port,
remote IP, remote port) — the paper relies on that same 4-tuple to key
bridge state (§7.1).  Ephemeral ports are allocated from a deterministic
counter: actively-replicated applications on the primary and secondary
therefore allocate *identical* port numbers, which §7.2 (server-initiated
establishment) silently requires.

The layer is also where TCP reports: every ``tcp.*`` trace category, metric
and span is a row of :attr:`TcpLayer.EVENTS`, bound once per host, and the
connections' own events (:mod:`repro.tcp.core`) come through it too.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.net.addresses import Ipv4Address
from repro.obs.events import EventSource, EventSpec
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.obs.spans import NULL_SPANS, FlowKey, SpanTracer, flow_key
from repro.sim.engine import Simulator
from repro.sim.process import Queue
from repro.sim.rng import seeded_rng
from repro.sim.trace import Tracer
from repro.tcp.connection import TcpConnection, TcpSnapshot, TcpState
from repro.tcp.segment import FLAG_ACK, FLAG_RST, TcpSegment
from repro.tcp.seqnum import seq_in_window
from repro.tcp.table import ConnectionTable, ConnKey, LingerTable

EPHEMERAL_PORT_START = 32768
EPHEMERAL_PORT_END = 61000

#: Receive window a lingering (TIME_WAIT) key advertises in its ACKs and
#: uses to classify stray RSTs as in-window (RFC 5961 §3.2).
LINGER_WINDOW = 0xFFFF


def _answer(
    segment: TcpSegment, seq: int, ack: int, flags: int, window: int = LINGER_WINDOW
) -> TcpSegment:
    """What the layer itself says back to ``segment`` when no TCB can: a
    reset (RFC 793) or a lingering 4-tuple's ACK (TIME_WAIT)."""
    return TcpSegment(
        src_port=segment.dst_port,
        dst_port=segment.src_port,
        seq=seq,
        ack=ack,
        flags=flags,
        window=window,
    )


class Listener:
    """A passive (listening) endpoint with an accept queue."""

    def __init__(self, layer: "TcpLayer", port: int, backlog: int = 16, failover: bool = False):
        self.layer = layer
        self.port = port
        self.backlog = backlog
        self.failover = failover
        self.accept_queue: Queue = Queue(layer.sim, name=f"accept:{port}")
        self.pending = 0  # connections in SYN_RCVD
        self.closed = False

    def close(self) -> None:
        self.closed = True
        self.layer.close_listener(self.port)


class TcpLayer(EventSource):
    """All TCP endpoints of one host."""

    EVENTS = {
        # -- per segment ------------------------------------------------
        "tx": EventSpec(
            counters=(("tcp.segments_sent", None), ("tcp.bytes_sent", "size")),
            trace=("tcp.tx", "seg", "dst"), span=("tcp.tx", "seq", "size"),
        ),
        "rx": EventSpec(span=("tcp.rx", "seq", "size")),
        "bad_checksum": EventSpec(trace=("tcp.bad_checksum", "conn", "seg")),
        # -- loss recovery (RTO, fast retransmit, persist) ----------------
        "rtx": EventSpec(
            counters=(("tcp.retransmits", None),),
            trace=("tcp.rtx", "conn", "state", "count"),
        ),
        "fast_rtx": EventSpec(
            counters=(("tcp.fast_retransmits", None),), trace=("tcp.fast_rtx", "conn")
        ),
        "zwp": EventSpec(trace=("tcp.zwp", "conn")),
        "give_up": EventSpec(trace=("tcp.give_up", "conn")),
        # -- resets and RFC 5961 ------------------------------------------
        "rst_sent": EventSpec(
            stat="rsts_sent", counters=(("tcp.rsts_sent", None),),
            trace=("tcp.rst_sent", "to"),
        ),
        "rst_received": EventSpec(trace=("tcp.rst_received", "conn", "seq")),
        "challenge_ack": EventSpec(
            counters=(("tcp.challenge_acks", None),),
            trace=("tcp.challenge_ack", "conn", "reason"),
        ),
        # -- TIME_WAIT (the linger table) ---------------------------------
        "linger_ack": EventSpec(stat="linger_acks_sent", trace=("tcp.linger_ack", "to")),
        "linger_reset": EventSpec(trace=("tcp.linger_reset", "key")),
        # -- path MTU discovery -------------------------------------------
        "pmtud_clamp": EventSpec(trace=("tcp.pmtud_clamp", "conn", "mss")),
        "pmtud_accepted": EventSpec(
            stat="pmtud_accepted", counters=(("tcp.pmtud_accepted", None),)
        ),
        "pmtud_rejected": EventSpec(
            stat="pmtud_rejected", counters=(("tcp.pmtud_rejected", None),),
            trace=("tcp.pmtud_rejected", "to", "mtu"),
        ),
        # -- reintegration --------------------------------------------------
        "installed": EventSpec(trace=("tcp.installed", "conn", "state")),
    }

    def __init__(
        self,
        sim: Simulator,
        node_name: str,
        local_ips: Callable[[], List[Ipv4Address]],
        transmit: Callable[[TcpSegment, Ipv4Address, Ipv4Address], None],
        tracer: Optional[Tracer] = None,
        rng: Optional[random.Random] = None,
        metrics: Optional[MetricsRegistry] = None,
        spans: Optional[SpanTracer] = None,
    ):
        self.sim = sim
        self.node_name = node_name
        self.local_ips = local_ips
        self._transmit = transmit
        self.tracer = tracer or Tracer(record=False)
        self.spans = spans or NULL_SPANS
        self.rng = rng or seeded_rng(0)
        # Options every new connection on this host gets (callers set
        # entries, e.g. ``min_rto``); a connect's own options win.
        self.conn_defaults: Dict[str, Any] = {}
        self.metrics = metrics or NULL_METRICS
        self._bind_events(self.metrics, node_name)
        self.connections: ConnectionTable = ConnectionTable()
        self.listeners: Dict[int, Listener] = {}
        # Instance attributes so tests can shrink the range and exercise
        # exhaustion without 28k allocations.
        self.ephemeral_port_start = EPHEMERAL_PORT_START
        self.ephemeral_port_end = EPHEMERAL_PORT_END
        self._next_ephemeral = self.ephemeral_port_start
        # Recently-closed 4-tuples: key -> (expiry, snd_nxt, rcv_nxt).
        # A retransmitted FIN/data segment that arrives after a clean
        # close is answered with a pure ACK instead of a RST, the
        # TIME_WAIT courtesy a real stack extends to a peer whose last
        # ACK was lost.  Pruned lazily — no timers, so an idle simulator
        # still quiesces.
        self.linger_duration = 2.0
        self._lingering: LingerTable = LingerTable()
        # RFC 5961 §10 throttle state for lingering (TIME_WAIT) keys:
        # key -> (window_start, challenges_sent_in_window).  A TIME_WAIT
        # endpoint keeps answering in-window RST probes with challenge
        # ACKs, so retiring the TCB must not retire the rate limit.
        self._linger_challenges: Dict[ConnKey, Tuple[float, int]] = {}

    # ------------------------------------------------------------------
    # configuration and identity
    # ------------------------------------------------------------------

    def choose_iss(self) -> int:
        """Initial send sequence.  Random per connection, per host — the
        bridge's Δseq absorbs the difference between the replicas."""
        return self.rng.randrange(1 << 32)

    def allocate_ephemeral_port(
        self,
        remote_ip: Optional[Ipv4Address] = None,
        remote_port: Optional[int] = None,
    ) -> int:
        """Deterministic ephemeral allocation (see module docstring).

        A port whose 4-tuple is still lingering in TIME_WAIT-style state
        must not be reused toward the same remote endpoint: the peer would
        see a SYN for a connection it may still hold state for, and our
        linger record would swallow the handshake.  When the caller knows
        the destination (``connect`` always does) only a matching lingering
        remote blocks the port; without that context any lingering use of
        the port blocks it.
        """
        self._prune_lingering()
        span = self.ephemeral_port_end - self.ephemeral_port_start
        for _ in range(span):
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral >= self.ephemeral_port_end:
                self._next_ephemeral = self.ephemeral_port_start
            if port in self.listeners or self.connections.port_in_use(port):
                continue
            if self._lingering.port_blocked(port, self.sim.now, remote_ip, remote_port):
                continue
            return port
        active = self.connections.count_ports_in_range(
            self.ephemeral_port_start, self.ephemeral_port_end
        )
        lingering = self._lingering.count_ports_in_range(
            self.ephemeral_port_start, self.ephemeral_port_end
        )
        raise OSError(
            f"{self.node_name}: ephemeral ports exhausted"
            f" ({span} in range {self.ephemeral_port_start}-"
            f"{self.ephemeral_port_end - 1}: {active} held by live"
            f" connections, {lingering} lingering after close)"
        )

    def _prune_lingering(self) -> None:
        """Drop linger records whose TIME_WAIT-style window has expired."""
        self._lingering.prune(self.sim.now)
        if self._linger_challenges:
            self._linger_challenges = {
                key: state
                for key, state in self._linger_challenges.items()
                if key in self._lingering
            }

    # ------------------------------------------------------------------
    # opening endpoints
    # ------------------------------------------------------------------

    def listen(self, port: int, backlog: int = 16, failover: bool = False) -> Listener:
        if port in self.listeners:
            raise OSError(f"{self.node_name}: port {port} already listening")
        listener = Listener(self, port, backlog=backlog, failover=failover)
        self.listeners[port] = listener
        return listener

    def close_listener(self, port: int) -> None:
        self.listeners.pop(port, None)

    def forget_all(self) -> None:
        """Lose every TCB, listener and linger record, as a reboot does.
        Nothing fires: timers stop, and the events processes block on are
        dropped, so those processes never resume and are freed here, with
        their sockets and blocks, rather than by the cycle collector."""
        for conn in self.connections.values():
            conn.forget()
        for listener in self.listeners.values():
            listener.accept_queue.clear()
        self.connections.clear()
        self.listeners.clear()
        self._lingering.clear()

    def connect(
        self,
        remote_ip: Ipv4Address,
        remote_port: int,
        local_ip: Optional[Ipv4Address] = None,
        local_port: Optional[int] = None,
        failover: bool = False,
        **options: Any,
    ) -> TcpConnection:
        """Open an active connection (SYN is sent immediately)."""
        if local_port is None:
            local_port = self.allocate_ephemeral_port(remote_ip, remote_port)
        conn = self._new_tcb(local_ip, local_port, remote_ip, remote_port, failover, options)
        self.connections[conn.key] = conn
        conn.active_open(self.sim.now, self.choose_iss())
        return conn

    def _new_tcb(
        self,
        local_ip: Optional[Ipv4Address],
        local_port: int,
        remote_ip: Ipv4Address,
        remote_port: int,
        failover: bool,
        options: Dict[str, Any],
    ) -> TcpConnection:
        """A fresh, untabled TCB for a free 4-tuple, with the host's
        connection defaults under ``options``; no ``local_ip`` means the
        host's first address."""
        if local_ip is None:
            ips = self.local_ips()
            if not ips:
                raise OSError(f"{self.node_name}: no local IP")
            local_ip = ips[0]
        key = (local_ip, local_port, remote_ip, remote_port)
        if key in self.connections:
            raise OSError(f"{self.node_name}: connection {key} already exists")
        return TcpConnection(
            self, *key, failover=failover, **{**self.conn_defaults, **options}
        )

    def install_connection(
        self,
        snapshot: TcpSnapshot,
        local_ip: Optional[Ipv4Address] = None,
        **options: Any,
    ) -> TcpConnection:
        """Materialise a :class:`~repro.tcp.connection.TcpSnapshot` here.

        This is the replica-reintegration primitive: a joiner adopts an
        established connection exported by the survivor, keyed under its
        own ``local_ip`` (the bridge translates addresses on the wire, so
        the peer never sees the difference).  Returns the live connection,
        already ESTABLISHED (or CLOSE_WAIT) with buffers reloaded.
        """
        sizing = dict(  # the exporter's, unless this host or the caller says otherwise
            mss=snapshot.mss, send_buffer_size=snapshot.send_capacity,
            recv_buffer_size=snapshot.recv_capacity, min_rto=snapshot.min_rto,
        )
        conn = self._new_tcb(
            local_ip, snapshot.local_port, snapshot.remote_ip, snapshot.remote_port,
            snapshot.failover, {**sizing, **self.conn_defaults, **options},
        )
        conn.install_state(snapshot)
        self.connections[conn.key] = conn
        self._lingering.pop(conn.key, None)
        self._event("installed", conn=conn.__repr__, state=snapshot.state)
        return conn

    # ------------------------------------------------------------------
    # segment demultiplexing
    # ------------------------------------------------------------------

    def receive_segment(
        self, segment: TcpSegment, src_ip: Ipv4Address, dst_ip: Ipv4Address
    ) -> None:
        key = (dst_ip, segment.dst_port, src_ip, segment.src_port)
        if self.spans.enabled:  # the row is span-only: skip the call, not just the span
            self._event("rx", key, seq=segment.seq, size=len(segment.payload))
        conn = self.connections.get(key)
        if conn is not None:
            conn.segment_arrived(segment, src_ip)
            return
        if segment.syn and not segment.has_ack:
            listener = self.listeners.get(segment.dst_port)
            if listener is not None and not listener.closed:
                if listener.pending >= listener.backlog:
                    return  # silently drop: client will retry
                self._accept_syn(listener, segment, src_ip, dst_ip)
                return
        if segment.rst:
            self._linger_rst(key, segment, src_ip, dst_ip)
            return
        if not segment.syn and self._linger_ack(key, segment, src_ip, dst_ip):
            return
        self._send_rst_for(segment, src_ip, dst_ip)

    def icmp_frag_needed(
        self,
        quoted_src: Ipv4Address,
        quoted_src_port: int,
        quoted_dst: Ipv4Address,
        quoted_dst_port: int,
        quoted_seq: int,
        mtu: int,
    ) -> bool:
        """RFC 1191 fragmentation-needed handling with RFC 5927 validation.

        The quoted header names the *outgoing* segment that allegedly hit
        a small-MTU hop, so the TCB is looked up with our address first.
        The quoted sequence must fall inside the currently-unacknowledged
        send range — an off-path attacker who only knows the 4-tuple
        cannot satisfy that check, so blind PMTUD probes cannot shrink a
        connection's MSS (the isolation break in PAPERS.md).
        """
        key = (quoted_src, quoted_src_port, quoted_dst, quoted_dst_port)
        conn = self.connections.get(key)
        if conn is None or not conn.apply_mtu_hint(mtu, quoted_seq):
            self._event(
                "pmtud_rejected", to=lambda: f"{quoted_dst}:{quoted_dst_port}", mtu=mtu
            )
            return False
        self._event("pmtud_accepted")
        return True

    def _accept_syn(
        self,
        listener: Listener,
        segment: TcpSegment,
        src_ip: Ipv4Address,
        dst_ip: Ipv4Address,
    ) -> None:
        if not segment.checksum_ok(src_ip, dst_ip):
            self._event("bad_checksum", seg=segment.__repr__)  # no TCB yet: no conn
            return
        conn = self._new_tcb(
            dst_ip, segment.dst_port, src_ip, segment.src_port, listener.failover, {}
        )
        conn._listener = listener
        listener.pending += 1
        self.connections[conn.key] = conn
        conn.passive_open(self.sim.now, self.choose_iss(), segment)

    def connection_established(self, conn: TcpConnection) -> None:
        """Callback from a SYN_RCVD connection completing the handshake."""
        listener = conn._listener
        if listener is not None:
            listener.pending = max(0, listener.pending - 1)
            if not listener.closed:
                listener.accept_queue.put(conn)

    def _send_rst_for(
        self, segment: TcpSegment, src_ip: Ipv4Address, dst_ip: Ipv4Address
    ) -> None:
        """RFC 793 reset generation for segments with no matching endpoint."""
        if segment.has_ack:
            rst = _answer(segment, segment.ack, 0, FLAG_RST, window=0)
        else:
            rst = _answer(segment, 0, segment.seq_end, FLAG_RST | FLAG_ACK, window=0)
        self._event("rst_sent", to=lambda: f"{src_ip}:{segment.src_port}")
        self.send_segment(rst, dst_ip, src_ip)

    # ------------------------------------------------------------------
    # transmission and bookkeeping
    # ------------------------------------------------------------------

    def send_segment(
        self, segment: TcpSegment, src_ip: Ipv4Address, dst_ip: Ipv4Address
    ) -> None:
        """Seal (checksum) and hand the segment to the host datapath."""
        sealed = segment.sealed(src_ip, dst_ip)
        self._event(
            "tx", (src_ip, sealed.src_port, dst_ip, sealed.dst_port),
            seg=sealed.__repr__, dst=dst_ip.__str__,
            seq=sealed.seq, size=len(sealed.payload),
        )
        self._transmit(sealed, src_ip, dst_ip)

    def _flow(self, subject: ConnKey) -> FlowKey:
        return flow_key(*subject)

    def _linger_ack(
        self, key: ConnKey, segment: TcpSegment,
        src_ip: Ipv4Address, dst_ip: Ipv4Address,
    ) -> bool:
        """Answer a straggler for a recently-closed connection."""
        entry = self._live_linger(key)
        if entry is None:
            return False
        _expiry, snd_nxt, rcv_nxt, failover = entry
        if not segment.fin and not segment.payload:
            return True  # a stray pure ACK needs no answer, only no RST
        if segment.fin:
            # The peer is still waiting on our last ACK — restart the
            # quiet period, as TIME_WAIT restarts its 2·MSL timer.
            self._lingering[key] = (
                self.sim.now + self.linger_duration, snd_nxt, rcv_nxt, failover,
            )
        self._event("linger_ack", to=lambda: f"{src_ip}:{segment.src_port}")
        self.send_segment(_answer(segment, snd_nxt, rcv_nxt, FLAG_ACK), dst_ip, src_ip)
        return True

    def _live_linger(self, key: ConnKey) -> Optional[Tuple[float, int, int, bool]]:
        """The key's linger record; one whose window has run out is dropped
        here, with its challenge budget."""
        entry = self._lingering.get(key)
        if entry is not None and self.sim.now >= entry[0]:
            del self._lingering[key]
            self._linger_challenges.pop(key, None)
            return None
        return entry

    def _linger_rst(
        self, key: ConnKey, segment: TcpSegment,
        src_ip: Ipv4Address, dst_ip: Ipv4Address,
    ) -> None:
        """RFC 5961 §3.2 applied to a lingering (TIME_WAIT) 4-tuple.

        A TCB retired to the linger table must keep the exact reset
        semantics it had while tabled: an exact-match RST (seq ==
        rcv_nxt) ends the quiet period — the same teardown the full TCB
        honoured in TIME_WAIT — while an in-window RST draws a challenge
        ACK so a genuine peer can re-assert itself.  The challenge is
        throttled per key with the connection-class budget
        (:attr:`TcpConnection.CHALLENGE_LIMIT` per
        :attr:`TcpConnection.CHALLENGE_WINDOW`); without the throttle
        the counter is the CVE-2016-5696 probe oracle, and TIME_WAIT
        endpoints were part of that attack surface too.  Out-of-window
        RSTs — and RSTs for unknown keys — stay silently dropped."""
        entry = self._live_linger(key)
        if entry is None:
            return
        _expiry, snd_nxt, rcv_nxt, _failover = entry
        if segment.seq == rcv_nxt:
            del self._lingering[key]
            self._linger_challenges.pop(key, None)
            self._event("linger_reset", key=lambda: f"{key[2]}:{key[3]}")
            return
        if not seq_in_window(rcv_nxt, segment.seq, LINGER_WINDOW):
            return
        window_start, sent = self._linger_challenges.get(key, (-1.0, 0))
        if self.sim.now - window_start >= TcpConnection.CHALLENGE_WINDOW:
            window_start, sent = self.sim.now, 0
        if sent >= TcpConnection.CHALLENGE_LIMIT:
            self._linger_challenges[key] = (window_start, sent)
            return
        self._linger_challenges[key] = (window_start, sent + 1)
        self._event(
            "challenge_ack",
            conn=lambda: f"timewait {key[0]}:{key[1]}<->{key[2]}:{key[3]}",
            reason="in-window-rst-timewait",
        )
        self.send_segment(_answer(segment, snd_nxt, rcv_nxt, FLAG_ACK), dst_ip, src_ip)

    def retire_to_linger(self, conn: TcpConnection) -> None:
        """Turn a TCB entering TIME_WAIT into a linger record.

        The :class:`LingerTable` *is* this stack's TIME_WAIT: it answers
        retransmitted FINs/data with a pure ACK and blocks same-remote
        port reuse until its window expires, and the block itself ends
        right after.  One quiet period (``linger_duration``), a few bytes
        per closed 4-tuple instead of a TCB, and an exhaustion error that
        blames "lingering after close", not "live connections"."""
        self._untable(conn, linger=True)

    def deregister(self, conn: TcpConnection) -> None:
        # Clean close: keep answering stragglers for a while.
        self._untable(conn, linger=not conn.reset_received)

    def _untable(self, conn: TcpConnection, linger: bool) -> None:
        if self.connections.get(conn.key) is conn:
            del self.connections[conn.key]
            if linger:
                self._lingering[conn.key] = (
                    self.sim.now + self.linger_duration,
                    conn.snd_max, conn.rcv_nxt, conn.failover,
                )

    def rebind_lingering(
        self,
        old_ip: Ipv4Address,
        new_ip: Ipv4Address,
        covers: Callable[[int, bool], bool],
    ) -> None:
        """Re-home TIME_WAIT-style records of failover connections.

        A retired TCB is no longer in the connection table when a
        takeover re-keys it, but its stragglers arrive addressed to the
        taken-over IP afterwards; without moving the record, a
        retransmitted FIN right after failover would draw a RST instead
        of the linger ACK (the §2 no-client-reset rule)."""
        for key in [k for k in self._lingering if k[0] == old_ip]:
            entry = self._lingering[key]
            if covers(key[1], entry[3]):
                self._lingering[(new_ip, key[1], key[2], key[3])] = (
                    self._lingering.pop(key)
                )

    def rebind_local_ip(self, old_ip: Ipv4Address, new_ip: Ipv4Address) -> None:
        """Re-home every TCB from ``old_ip`` to ``new_ip`` (IP takeover)."""
        moving = [
            conn for key, conn in list(self.connections.items()) if key[0] == old_ip
        ]
        for conn in moving:
            del self.connections[conn.key]
            conn.rebind_local_ip(new_ip)
            self.connections[conn.key] = conn
        # Stragglers for connections that closed before the takeover now
        # arrive addressed to the taken-over IP; re-home their records too.
        self.rebind_lingering(old_ip, new_ip, lambda port, failover: True)

    def established_count(self) -> int:
        return sum(
            1 for c in self.connections.values() if c.state == TcpState.ESTABLISHED
        )
