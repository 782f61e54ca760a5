"""Per-host TCP layer: demultiplexing, listeners, connection table.

A TCP connection is identified by the 4-tuple (local IP, local port,
remote IP, remote port) — the paper relies on that same 4-tuple to key
bridge state (§7.1).  Ephemeral ports are allocated from a deterministic
counter: actively-replicated applications on the primary and secondary
therefore allocate *identical* port numbers, which §7.2 (server-initiated
establishment) silently requires.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.net.addresses import Ipv4Address
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.obs.spans import NULL_SPANS, SpanTracer, flow_key
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


class TcpLayer:
    """All TCP endpoints of one host."""

    def __init__(
        self,
        sim: Simulator,
        node_name: str,
        local_ips: Callable[[], List[Ipv4Address]],
        transmit: Callable[[TcpSegment, Ipv4Address, Ipv4Address], None],
        tracer: Optional[Tracer] = None,
        rng: Optional[random.Random] = None,
        conn_defaults: Optional[dict] = None,
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
        self.conn_defaults = conn_defaults or {}
        self.metrics = metrics or NULL_METRICS
        # Pre-bound instruments: per-segment paths stay one branch when
        # the registry is disabled.  Connections update the rtx counters
        # through these references.
        self._m_tx = self.metrics.counter("tcp.segments_sent", host=node_name)
        self._m_tx_bytes = self.metrics.counter("tcp.bytes_sent", host=node_name)
        self._m_rtx = self.metrics.counter("tcp.retransmits", host=node_name)
        self._m_fast_rtx = self.metrics.counter("tcp.fast_retransmits", host=node_name)
        self._m_rsts = self.metrics.counter("tcp.rsts_sent", host=node_name)
        self._m_challenge = self.metrics.counter("tcp.challenge_acks", host=node_name)
        self._m_pmtud_ok = self.metrics.counter("tcp.pmtud_accepted", host=node_name)
        self._m_pmtud_rej = self.metrics.counter("tcp.pmtud_rejected", host=node_name)
        self.connections: ConnectionTable = ConnectionTable()
        self.listeners: Dict[int, Listener] = {}
        # Instance attributes so tests can shrink the range and exercise
        # exhaustion without 28k allocations.
        self.ephemeral_port_start = EPHEMERAL_PORT_START
        self.ephemeral_port_end = EPHEMERAL_PORT_END
        self._next_ephemeral = self.ephemeral_port_start
        self.rsts_sent = 0
        self.pmtud_accepted = 0
        self.pmtud_rejected = 0
        # Recently-closed 4-tuples: key -> (expiry, snd_nxt, rcv_nxt).
        # A retransmitted FIN/data segment that arrives after a clean
        # close is answered with a pure ACK instead of a RST, the
        # TIME_WAIT courtesy a real stack extends to a peer whose last
        # ACK was lost.  Pruned lazily — no timers, so an idle simulator
        # still quiesces.
        self.linger_duration = 2.0
        self._lingering: LingerTable = LingerTable()
        self.linger_acks_sent = 0
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
            if self._port_in_use(port):
                continue
            if self._port_lingering(port, remote_ip, remote_port):
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

    def _port_in_use(self, port: int) -> bool:
        return port in self.listeners or self.connections.port_in_use(port)

    def _port_lingering(
        self,
        port: int,
        remote_ip: Optional[Ipv4Address],
        remote_port: Optional[int],
    ) -> bool:
        return self._lingering.port_blocked(port, self.sim.now, remote_ip, remote_port)

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
        if local_ip is None:
            ips = self.local_ips()
            if not ips:
                raise OSError(f"{self.node_name}: no local IP")
            local_ip = ips[0]
        if local_port is None:
            local_port = self.allocate_ephemeral_port(remote_ip, remote_port)
        key = (local_ip, local_port, remote_ip, remote_port)
        if key in self.connections:
            raise OSError(f"{self.node_name}: connection {key} already exists")
        kwargs = dict(self.conn_defaults)
        kwargs.update(options)
        conn = TcpConnection(
            self, local_ip, local_port, remote_ip, remote_port,
            failover=failover, **kwargs,
        )
        self.connections[key] = conn
        conn.open_active()
        return conn

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
        if local_ip is None:
            ips = self.local_ips()
            if not ips:
                raise OSError(f"{self.node_name}: no local IP")
            local_ip = ips[0]
        key = (local_ip, snapshot.local_port, snapshot.remote_ip, snapshot.remote_port)
        if key in self.connections:
            raise OSError(f"{self.node_name}: connection {key} already exists")
        kwargs = dict(self.conn_defaults)
        kwargs.update(options)
        kwargs.setdefault("mss", snapshot.mss)
        kwargs.setdefault("send_buffer_size", snapshot.send_capacity)
        kwargs.setdefault("recv_buffer_size", snapshot.recv_capacity)
        kwargs.setdefault("min_rto", snapshot.min_rto)
        conn = TcpConnection(
            self,
            local_ip,
            snapshot.local_port,
            snapshot.remote_ip,
            snapshot.remote_port,
            failover=snapshot.failover,
            **kwargs,
        )
        conn.install_state(snapshot)
        self.connections[key] = conn
        self._lingering.pop(key, None)
        self.tracer.emit(
            self.sim.now, "tcp.installed", self.node_name,
            conn=conn.__repr__, state=snapshot.state,
        )
        return conn

    # ------------------------------------------------------------------
    # segment demultiplexing
    # ------------------------------------------------------------------

    def receive_segment(
        self, segment: TcpSegment, src_ip: Ipv4Address, dst_ip: Ipv4Address
    ) -> None:
        key = (dst_ip, segment.dst_port, src_ip, segment.src_port)
        if self.spans.enabled:
            self.spans.flow_event(
                flow_key(src_ip, segment.src_port, dst_ip, segment.dst_port),
                "tcp.rx", self.sim.now, self.node_name,
                seq=segment.seq, size=len(segment.payload),
            )
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
            self.pmtud_rejected += 1
            self._m_pmtud_rej.inc()
            self.tracer.emit(
                self.sim.now, "tcp.pmtud_rejected", self.node_name,
                to=lambda: f"{quoted_dst}:{quoted_dst_port}", mtu=mtu,
            )
            return False
        self.pmtud_accepted += 1
        self._m_pmtud_ok.inc()
        return True

    def _accept_syn(
        self,
        listener: Listener,
        segment: TcpSegment,
        src_ip: Ipv4Address,
        dst_ip: Ipv4Address,
    ) -> None:
        if not segment.checksum_ok(src_ip, dst_ip):
            self.tracer.emit(
                self.sim.now, "tcp.bad_checksum", self.node_name, seg=segment.__repr__
            )
            return
        kwargs = dict(self.conn_defaults)
        conn = TcpConnection(
            self,
            dst_ip,
            segment.dst_port,
            src_ip,
            segment.src_port,
            failover=listener.failover,
            **kwargs,
        )
        conn._listener = listener
        listener.pending += 1
        self.connections[conn.key] = conn
        conn.open_passive(segment)

    def connection_established(self, conn: TcpConnection) -> None:
        """Callback from a SYN_RCVD connection completing the handshake."""
        listener = getattr(conn, "_listener", None)
        if listener is not None:
            listener.pending = max(0, listener.pending - 1)
            if not listener.closed:
                listener.accept_queue.put(conn)

    def _send_rst_for(
        self, segment: TcpSegment, src_ip: Ipv4Address, dst_ip: Ipv4Address
    ) -> None:
        """RFC 793 reset generation for segments with no matching endpoint."""
        self.rsts_sent += 1
        self._m_rsts.inc()
        if segment.has_ack:
            rst = TcpSegment(
                src_port=segment.dst_port,
                dst_port=segment.src_port,
                seq=segment.ack,
                ack=0,
                flags=FLAG_RST,
                window=0,
            )
        else:
            rst = TcpSegment(
                src_port=segment.dst_port,
                dst_port=segment.src_port,
                seq=0,
                ack=segment.seq_end,
                flags=FLAG_RST | FLAG_ACK,
                window=0,
            )
        self.tracer.emit(
            self.sim.now, "tcp.rst_sent", self.node_name,
            to=lambda: f"{src_ip}:{segment.src_port}",
        )
        self.send_segment(rst, dst_ip, src_ip)

    # ------------------------------------------------------------------
    # transmission and bookkeeping
    # ------------------------------------------------------------------

    def send_segment(
        self, segment: TcpSegment, src_ip: Ipv4Address, dst_ip: Ipv4Address
    ) -> None:
        """Seal (checksum) and hand the segment to the host datapath."""
        sealed = segment.sealed(src_ip, dst_ip)
        self._m_tx.inc()
        self._m_tx_bytes.inc(len(sealed.payload))
        self.tracer.emit(
            self.sim.now, "tcp.tx", self.node_name,
            seg=sealed.__repr__, dst=dst_ip.__str__,
        )
        if self.spans.enabled:
            self.spans.flow_event(
                flow_key(src_ip, sealed.src_port, dst_ip, sealed.dst_port),
                "tcp.tx", self.sim.now, self.node_name,
                seq=sealed.seq, size=len(sealed.payload),
            )
        self._transmit(sealed, src_ip, dst_ip)

    def _linger_ack(
        self, key: ConnKey, segment: TcpSegment,
        src_ip: Ipv4Address, dst_ip: Ipv4Address,
    ) -> bool:
        """Answer a straggler for a recently-closed connection."""
        entry = self._lingering.get(key)
        if entry is None:
            return False
        expiry, snd_nxt, rcv_nxt, failover = entry
        if self.sim.now >= expiry:
            del self._lingering[key]
            return False
        if not segment.fin and not segment.payload:
            return True  # a stray pure ACK needs no answer, only no RST
        if segment.fin:
            # The peer is still waiting on our last ACK — restart the
            # quiet period, as TIME_WAIT restarts its 2·MSL timer.
            self._lingering[key] = (
                self.sim.now + self.linger_duration, snd_nxt, rcv_nxt, failover,
            )
        ack = TcpSegment(
            src_port=segment.dst_port,
            dst_port=segment.src_port,
            seq=snd_nxt,
            ack=rcv_nxt,
            flags=FLAG_ACK,
            window=0xFFFF,
        )
        self.linger_acks_sent += 1
        self.tracer.emit(
            self.sim.now, "tcp.linger_ack", self.node_name,
            to=lambda: f"{src_ip}:{segment.src_port}",
        )
        self.send_segment(ack, dst_ip, src_ip)
        return True

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
        entry = self._lingering.get(key)
        if entry is None:
            return
        expiry, snd_nxt, rcv_nxt, _failover = entry
        if self.sim.now >= expiry:
            del self._lingering[key]
            self._linger_challenges.pop(key, None)
            return
        if segment.seq == rcv_nxt:
            del self._lingering[key]
            self._linger_challenges.pop(key, None)
            self.tracer.emit(
                self.sim.now, "tcp.linger_reset", self.node_name,
                key=lambda: f"{key[2]}:{key[3]}",
            )
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
        self._m_challenge.inc()
        self.tracer.emit(
            self.sim.now, "tcp.challenge_ack", self.node_name,
            conn=lambda: f"timewait {key[0]}:{key[1]}<->{key[2]}:{key[3]}",
            reason="in-window-rst-timewait",
        )
        ack = TcpSegment(
            src_port=segment.dst_port,
            dst_port=segment.src_port,
            seq=snd_nxt,
            ack=rcv_nxt,
            flags=FLAG_ACK,
            window=LINGER_WINDOW,
        )
        self.send_segment(ack, dst_ip, src_ip)

    def retire_to_linger(self, conn: TcpConnection) -> None:
        """Move a TIME_WAIT TCB out of the connection table immediately.

        The :class:`LingerTable` *is* this stack's TIME_WAIT store: it
        answers retransmitted FINs/data with a pure ACK and blocks
        same-remote port reuse until its window expires.  Keeping the
        full TCB in the connection table for 2·MSL on top of that would
        double-count the quiet period — under pool reconnect churn the
        ephemeral range fills with dead-but-tabled connections and the
        exhaustion error blames "live connections" for ports that are
        merely cooling down.  Retiring at TIME_WAIT entry leaves one
        consistent window (``linger_duration``) and one honest
        diagnostic ("lingering after close")."""
        existing = self.connections.get(conn.key)
        if existing is not conn:
            return
        del self.connections[conn.key]
        self._lingering[conn.key] = (
            self.sim.now + self.linger_duration,
            conn.snd_max,
            conn.rcv_nxt,
            conn.failover,
        )

    def deregister(self, conn: TcpConnection) -> None:
        existing = self.connections.get(conn.key)
        if existing is conn:
            del self.connections[conn.key]
            if not conn.reset_received:
                # Clean close: keep answering stragglers for a while.
                self._lingering[conn.key] = (
                    self.sim.now + self.linger_duration,
                    conn.snd_max,
                    conn.rcv_nxt,
                    conn.failover,
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
        for key in [k for k in self._lingering if k[0] == old_ip]:
            self._lingering[(new_ip, key[1], key[2], key[3])] = self._lingering.pop(key)

    def established_count(self) -> int:
        return sum(
            1 for c in self.connections.values() if c.state == TcpState.ESTABLISHED
        )
