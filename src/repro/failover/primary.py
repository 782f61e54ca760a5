"""The primary server bridge (§3.2–§3.4, §4, §6, §7, §8).

All client-visible traffic of a failover connection is synthesised here:

* the primary's own TCP output is *never* sent directly — its payload is
  mapped into S-space (Δseq) and parked in the **primary output queue**;
* the secondary's diverted segments land in the **secondary output
  queue**; the byte-for-byte common prefix of the two queues is emitted to
  the client with ACK = min(ack_P, ack_S) and window = min(win_P, win_S);
* retransmissions (payload below the high-water mark already sent to the
  client) are recognised and forwarded immediately without queueing (§4);
* empty segments are synthesised when the merged ACK advances with no
  payload to carry it (§3.4);
* connection establishment merges the two SYNs (min MSS, min window) and
  records Δseq (§7); termination merges the two FINs and §8's late-FIN
  rules synthesise ACKs after the state is deleted;
* on secondary failure the §6 procedure flushes the primary queue and
  drops into *direct* mode: segments pass with only the Δseq adjustment,
  forever.

State is keyed by (peer address, peer port, local port): the peer is the
unreplicated endpoint — the client for client-initiated connections, the
back-end server ``T`` for server-initiated ones (§7.2).  Both replicas
allocate identical local ports (deterministic ephemeral allocation), so
the key is stable across the three traffic sources.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Set, Tuple

from repro.failover.bridge import BridgeBase
from repro.failover.delta import SeqOffset
from repro.failover.merge import AckWindowMerge
from repro.failover.queues import OutputQueue, PayloadMismatch, match_prefix
from repro.net.addresses import Ipv4Address
from repro.net.packet import IPPROTO_TCP, Ipv4Datagram
from repro.obs.spans import FlowKey, flow_key as span_flow_key
from repro.tcp.segment import (
    FLAG_ACK,
    FLAG_FIN,
    FLAG_PSH,
    FLAG_SYN,
    TcpSegment,
    incremental_rewrite,
)
from repro.tcp.seqnum import seq_add, seq_gt, seq_lt, seq_max, seq_sub

if TYPE_CHECKING:
    from repro.failover.options import FailoverConfig
    from repro.net.host import Host
    from repro.sim.trace import Tracer

BridgeKey = Tuple[Ipv4Address, int, int]  # (peer ip, peer port, local port)


def _is_pure_dup_ack(segment: TcpSegment, last_ack: Optional[int]) -> bool:
    """A payload-less, flag-less ACK repeating the replica's last level."""
    return (
        not segment.payload
        and not segment.syn
        and not segment.fin
        and segment.has_ack
        and last_ack is not None
        and segment.ack == last_ack
    )


@dataclass
class BridgeConnection:
    """Per-connection bridge state on the primary (one per 4-tuple)."""

    peer_ip: Ipv4Address
    peer_port: int
    local_ip: Ipv4Address
    local_port: int
    role: str  # 'server' (client-initiated) or 'client' (server-initiated)
    syn_p: Optional[TcpSegment] = None
    syn_s: Optional[TcpSegment] = None
    syn_emitted: bool = False
    delta: Optional[SeqOffset] = None
    mss: int = 1460
    p_queue: Optional[OutputQueue] = None
    s_queue: Optional[OutputQueue] = None
    merge: AckWindowMerge = field(default_factory=AckWindowMerge)
    sent_hwm: Optional[int] = None  # S-space seq never yet sent to the peer
    fin_p: Optional[int] = None  # S-space seq of each replica's FIN
    fin_s: Optional[int] = None
    fin_sent: bool = False
    peer_fin_end: Optional[int] = None  # peer-space seq_end of the peer's FIN
    our_fin_acked: bool = False
    direct: bool = False  # §6 mode after secondary failure
    broken: bool = False  # replica divergence detected
    # Duplicate-ACK forwarding: pure ACKs repeating each replica's level
    # since the last peer-facing emission.  A TCP only repeats a pure ACK
    # when provoked by a segment arrival, so min(dup_p, dup_s) > 0 means
    # the peer is retransmitting (it missed our ACK) or probing — the
    # merged dup-ACK must go out even though the merged ACK did not move.
    dup_p: int = 0
    dup_s: int = 0
    # Resume-merge watch: which replicas' output has reached the bridge
    # since resume_merge() re-seeded this connection.  The merge counts
    # as restored once both flow again — matched payload is not required
    # (a pure-upload server emits nothing but ACKs).
    resume_seen_p: bool = False
    resume_seen_s: bool = False

    @property
    def key(self) -> BridgeKey:
        return (self.peer_ip, self.peer_port, self.local_port)

    def ready_to_delete(self) -> bool:
        """§8: both directions closed and both FINs acknowledged."""
        if not (self.fin_sent and self.our_fin_acked):
            return False
        if self.peer_fin_end is None:
            return False
        merged = self.merge.merged_ack()
        return merged is not None and seq_gt(merged, seq_sub(self.peer_fin_end, 1))


@dataclass
class ConnectionResume:
    """Everything :meth:`PrimaryBridge.resume_merge` needs to re-seed one
    connection's bridge state when a replica reintegrates.

    ``frontier`` is the next peer-visible sequence number that has *not*
    yet been sent to the peer (the survivor's ``snd_max`` mapped into the
    peer's numbering): both output queues restart there, and it becomes
    the emission high-water mark so in-flight retransmissions keep using
    the §4 fast path.  ``ack``/``window`` seed the ACK/window merge with
    the state both replicas share at the snapshot instant.
    """

    peer_ip: Ipv4Address
    peer_port: int
    local_ip: Ipv4Address
    local_port: int
    delta: SeqOffset
    frontier: int
    ack: Optional[int]
    window: int
    mss: int = 1460
    role: str = "server"
    peer_fin_end: Optional[int] = None

    @property
    def key(self) -> BridgeKey:
        return (self.peer_ip, self.peer_port, self.local_port)


class PrimaryBridge(BridgeBase):
    """Merging bridge on the primary server."""

    def __init__(
        self,
        host: "Host",
        config: "FailoverConfig",
        secondary_ip: Ipv4Address,
        tracer: Optional["Tracer"] = None,
        bridge_cost: float = 15e-6,
        emit_cost: float = 25e-6,
        ack_merging: bool = True,
        window_merging: bool = True,
    ):
        super().__init__(host, config, tracer=tracer, bridge_cost=bridge_cost)
        self.emit_cost = emit_cost
        self.secondary_ip = secondary_ip
        # Ablation knobs (benchmarks only); True reproduces the paper.
        self.ack_merging = ack_merging
        self.window_merging = window_merging
        self.secondary_down = False
        self.connections: Dict[BridgeKey, BridgeConnection] = {}
        # Reintegration: connections that could not be resumed (already
        # closing when the replica rejoined) keep talking to the peer
        # without bridge interference, and keys whose first post-resume
        # merged emission is still outstanding are watched so the
        # coordinator can mark the merge phase complete.
        self.bypass_keys: Set[BridgeKey] = set()
        self._resume_watch: Set[BridgeKey] = set()
        self.on_resume_merged = None  # callable(BridgeKey) or None
        # Statistics (asserted on by tests, reported by benchmarks).
        self.segments_merged = 0
        self.empty_acks_sent = 0
        self.retransmissions_forwarded = 0
        self.late_acks_synthesized = 0
        self.mismatches = 0
        self.rsts_ignored = 0
        # Metrics-plane mirrors of the above, plus queue-depth histograms
        # (labelled instruments; free when the registry is disabled).
        host_label = host.name
        self._m_merged = self.metrics.counter("bridge.segments_merged", host=host_label)
        self._m_bytes_matched = self.metrics.counter("bridge.bytes_matched", host=host_label)
        self._m_empty_acks = self.metrics.counter("bridge.empty_acks", host=host_label)
        self._m_rtx_fwd = self.metrics.counter(
            "bridge.retransmissions_forwarded", host=host_label
        )
        self._m_late_acks = self.metrics.counter(
            "bridge.late_acks_synthesized", host=host_label
        )
        self._m_rsts_ignored = self.metrics.counter(
            "bridge.rsts_ignored", host=host_label
        )
        self._m_mismatches = self.metrics.counter("bridge.mismatches", host=host_label)
        self._m_depth_p = self.metrics.histogram(
            "bridge.queue_depth", host=host_label, queue="P"
        )
        self._m_depth_s = self.metrics.histogram(
            "bridge.queue_depth", host=host_label, queue="S"
        )

    def install(self) -> None:
        self.host.install_bridge(self)

    # ==================================================================
    # outgoing: segments from the primary's own TCP layer  (§3.2)
    # ==================================================================

    def segment_from_tcp(
        self, segment: TcpSegment, src_ip: Ipv4Address, dst_ip: Ipv4Address
    ) -> bool:
        if dst_ip == self.secondary_ip:
            return False
        if not self._is_failover_outgoing(segment, src_ip, dst_ip):
            return False
        key = (dst_ip, segment.dst_port, segment.src_port)
        if key in self.bypass_keys:
            return False  # un-resumed connection: unbridged, like any other
        bc = self.connections.get(key)
        if bc is None:
            if segment.rst:
                return False  # RST for an unknown connection: pass through
            if not segment.syn:
                # Late retransmission after §8 state deletion; the peer
                # already acknowledged everything, so drop it.
                self._trace("bridge.p.late_local_drop", seq=segment.seq)
                return True
            bc = self._create_connection(
                key, src_ip, role="server" if segment.has_ack else "client"
            )
        self.host.cpu.run(self.bridge_cost, self._from_primary_tcp, bc, segment)
        return True

    def _create_connection(
        self, key: BridgeKey, local_ip: Ipv4Address, role: str
    ) -> BridgeConnection:
        bc = BridgeConnection(
            peer_ip=key[0],
            peer_port=key[1],
            local_ip=local_ip,
            local_port=key[2],
            role=role,
        )
        bc.merge = AckWindowMerge(
            use_min_ack=self.ack_merging, use_min_window=self.window_merging
        )
        if self.secondary_down:
            # Born after the secondary failed: direct mode from the start,
            # with P's own numbering (Δseq = 0).
            bc.direct = True
            bc.delta = SeqOffset.identity()
        self.connections[key] = bc
        self._trace("bridge.p.conn_created", peer=lambda: f"{key[0]}:{key[1]}",
                    local_port=key[2], role=role)
        if self.spans.enabled:
            peer_key = self._span_key(bc)
            # The secondary's diverted copies ride a rewritten 4-tuple
            # (a_s:local → a_p:peer); alias it so the divert leg's TCP and
            # Ethernet spans land in the same trace as the client leg.
            self.spans.alias_flow(
                span_flow_key(
                    self.secondary_ip, bc.local_port, bc.local_ip, bc.peer_port
                ),
                peer_key,
            )
            self.spans.flow_event(
                peer_key, "bridge.conn_created", self.sim.now, self.host.name,
                role=role,
            )
        return bc

    def _span_key(self, bc: BridgeConnection) -> FlowKey:
        """The peer-facing flow key this connection's spans attach to."""
        return span_flow_key(
            bc.peer_ip, bc.peer_port, bc.local_ip, bc.local_port
        )

    def _from_primary_tcp(self, bc: BridgeConnection, segment: TcpSegment) -> None:
        if bc.broken:
            return
        if segment.rst:
            self._emit_rst(bc, segment, from_primary=True)
            return
        if segment.syn:
            bc.syn_p = segment
            if bc.direct:
                if bc.syn_emitted:
                    self._direct_passthrough(bc, segment)
                else:
                    self._direct_emit_syn(bc)
            elif bc.syn_emitted:
                self._reemit_syn(bc)  # primary's SYN retransmission
            elif bc.syn_s is not None:
                self._complete_handshake(bc)
            return
        if bc.direct:
            self._direct_passthrough(bc, segment)
            return
        if bc.delta is None:
            # Data-bearing segment before the merged SYN: cannot map yet.
            self._trace("bridge.p.early_drop", seq=segment.seq)
            return
        s_seq = bc.delta.p_to_s(segment.seq)
        if _is_pure_dup_ack(segment, bc.merge.ack_p):
            bc.dup_p += 1
        bc.merge.update_from_primary(
            segment.ack if segment.has_ack else None, segment.window
        )
        fin_seq = seq_add(s_seq, len(segment.payload)) if segment.fin else None
        self._ingest(bc, "P", s_seq, segment.payload, fin_seq)

    # ==================================================================
    # incoming datagrams  (§3.2 demultiplexer)
    # ==================================================================

    def datagram_from_ip(self, datagram: Ipv4Datagram) -> Optional[Ipv4Datagram]:
        if datagram.protocol != IPPROTO_TCP:
            return datagram
        if not self.host.ip.owns(datagram.dst):
            return datagram
        segment = datagram.payload
        if segment.orig_dst_option is not None:
            return self._from_secondary_datagram(datagram, segment)
        return self._from_peer_datagram(datagram, segment)

    # ---- segments diverted from the secondary ------------------------

    def _from_secondary_datagram(
        self, datagram: Ipv4Datagram, segment: TcpSegment
    ) -> None:
        peer = segment.orig_dst_option
        key = (peer, segment.dst_port, segment.src_port)
        bc = self.connections.get(key)
        if bc is None:
            if segment.syn:
                bc = self._create_connection(
                    key,
                    self._local_ip_guess(),
                    role="server" if segment.has_ack else "client",
                )
            elif segment.rst:
                return None  # primary's own TCP will have RST'd already
            else:
                # §8: a FIN (or trailing segment) retransmitted by S after
                # we deleted the connection state: acknowledge it to S.
                self._synthesize_ack_to_secondary(datagram, segment)
                return None
        if self.secondary_down:
            return None  # stale segment already in flight when S died
        # The diverted segment never reaches our TCP layer, so charge its
        # receive cost here along with the bridge's own processing cost.
        cost = (
            self.host.rx_segment_cost
            + self.host.rx_byte_cost * len(segment.payload)
            + self.bridge_cost
        )
        self.host.cpu.run(cost, self._from_secondary_tcp, bc, segment)
        return None

    def _from_secondary_tcp(self, bc: BridgeConnection, segment: TcpSegment) -> None:
        if bc.broken or bc.direct:
            return
        if segment.rst:
            self._trace("bridge.p.s_rst_dropped", peer=bc.peer_ip.__str__)
            return
        if segment.syn:
            bc.syn_s = segment
            if bc.syn_emitted:
                self._reemit_syn(bc)  # secondary's SYN retransmission
            elif bc.syn_p is not None:
                self._complete_handshake(bc)
            return
        if bc.delta is None:
            self._trace("bridge.p.early_drop_s", seq=segment.seq)
            return
        if _is_pure_dup_ack(segment, bc.merge.ack_s):
            bc.dup_s += 1
        bc.merge.update_from_secondary(
            segment.ack if segment.has_ack else None, segment.window
        )
        fin_seq = seq_add(segment.seq, len(segment.payload)) if segment.fin else None
        self._ingest(bc, "S", segment.seq, segment.payload, fin_seq)

    # ---- segments from the unreplicated peer (client or back-end T) ---

    def _from_peer_datagram(
        self, datagram: Ipv4Datagram, segment: TcpSegment
    ) -> Optional[Ipv4Datagram]:
        flag = self._connection_flag(
            datagram.dst, segment.dst_port, datagram.src, segment.src_port
        )
        if not self._covers(segment.dst_port, flag):
            return datagram  # ordinary traffic
        key = (datagram.src, segment.src_port, segment.dst_port)
        if key in self.bypass_keys:
            return datagram  # un-resumed connection: deliver untouched
        bc = self.connections.get(key)
        if bc is None:
            if segment.syn and not segment.has_ack:
                self._create_connection(key, datagram.dst, role="server")
                return datagram  # the SYN itself goes up unmodified
            if segment.rst:
                return datagram
            # §8: peer retransmission after state deletion → synthesise ACK.
            if segment.fin or segment.payload:
                self._synthesize_ack_to_peer(datagram, segment)
                return None
            return None
        if segment.rst:
            # Blind-reset hardening: the bridge used to drop connection
            # state on *any* peer RST, after which client retransmissions
            # hit the §8 synthesize-ACK path and were silently black-holed
            # — an off-path attacker's in-window forgery killed the bridge
            # even though the TCP stack survived.  Mirror RFC 5961: only
            # an exact-match, checksum-valid RST deletes bridge state; the
            # segment always goes up so the stack can challenge-ACK.
            if self._peer_rst_valid(datagram, segment):
                self._delete(bc, reason="peer_rst")
            else:
                self.rsts_ignored += 1
                self._m_rsts_ignored.inc()
                self._trace(
                    "bridge.p.rst_ignored",
                    peer=lambda: f"{datagram.src}:{segment.src_port}",
                    seq=segment.seq,
                )
            return datagram
        if segment.fin:
            bc.peer_fin_end = segment.seq_end
        if not segment.has_ack:
            return datagram
        if bc.delta is None:
            # ACK in S-space before we computed Δseq: cannot translate.
            self._trace("bridge.p.ack_before_delta", seq=segment.seq)
            return None
        if (
            bc.fin_sent
            and bc.fin_p is not None
            and seq_gt(segment.ack, bc.fin_p)
        ):
            bc.our_fin_acked = True
        rewritten = incremental_rewrite(
            segment,
            old_src=datagram.src,
            old_dst=datagram.dst,
            ack=bc.delta.s_to_p(segment.ack),
        )
        if bc.ready_to_delete():
            self._delete(bc, reason="closed")
        return Ipv4Datagram(
            datagram.src, datagram.dst, datagram.protocol, rewritten, datagram.ttl
        )

    def _peer_rst_valid(
        self, datagram: Ipv4Datagram, segment: TcpSegment
    ) -> bool:
        """Exact-match validation before honouring a peer RST."""
        if not segment.checksum_ok(datagram.src, datagram.dst):
            return False
        conn = self.host.tcp.connections.get(
            (datagram.dst, segment.dst_port, datagram.src, segment.src_port)
        )
        if conn is None:
            # No live TCB to validate against (already torn down locally):
            # bridge state is stale either way, let the RST clear it.
            return True
        return segment.seq == conn.rcv_nxt

    # ==================================================================
    # the §3.4 engine: queues, matching, retransmissions, empty ACKs
    # ==================================================================

    def _ingest(
        self,
        bc: BridgeConnection,
        source: str,
        s_seq: int,
        payload: bytes,
        fin_seq: Optional[int],
    ) -> None:
        emitted = False
        if payload:
            # §4: payload at or below the high-water mark was already sent
            # to the client — this is a retransmission; forward immediately.
            already = 0
            if seq_lt(s_seq, bc.sent_hwm):
                already = min(seq_sub(bc.sent_hwm, s_seq), len(payload))
                self._emit_data(bc, s_seq, payload[:already], retransmission=True)
                self.retransmissions_forwarded += 1
                self._m_rtx_fwd.inc()
                emitted = True
            if already < len(payload):
                fresh_seq = seq_add(s_seq, already)
                queue = bc.p_queue if source == "P" else bc.s_queue
                try:
                    queue.enqueue(fresh_seq, payload[already:])
                except PayloadMismatch as exc:
                    self._mark_broken(bc, exc)
                    return
                emitted = self._match_and_emit(bc) or emitted
        if fin_seq is not None:
            if source == "P":
                bc.fin_p = fin_seq
            else:
                bc.fin_s = fin_seq
            if bc.fin_sent and seq_lt(fin_seq, bc.sent_hwm):
                self._emit_fin(bc)  # retransmitted FIN → forward again
                self.retransmissions_forwarded += 1
                self._m_rtx_fwd.inc()
                emitted = True
        if self._emit_fin_if_ready(bc):
            emitted = True
        if not emitted:
            self._maybe_empty_ack(bc)
        if bc.p_queue is not None:
            self._m_depth_p.observe(len(bc.p_queue))
        if bc.s_queue is not None:
            self._m_depth_s.observe(len(bc.s_queue))
        if self._resume_watch and bc.key in self._resume_watch:
            if source == "P":
                bc.resume_seen_p = True
            else:
                bc.resume_seen_s = True
            if bc.resume_seen_p and bc.resume_seen_s:
                self._note_resume_merged(bc)
        if bc.ready_to_delete():
            self._delete(bc, reason="closed")

    def _match_and_emit(self, bc: BridgeConnection) -> bool:
        emitted = False
        while True:
            try:
                match = match_prefix(bc.p_queue, bc.s_queue)
            except PayloadMismatch as exc:
                self._mark_broken(bc, exc)
                return emitted
            if match is None:
                return emitted
            seq, data = match
            offset = 0
            while offset < len(data):
                chunk = data[offset : offset + bc.mss]
                self._emit_data(bc, seq_add(seq, offset), chunk)
                offset += len(chunk)
            self.segments_merged += 1
            self._m_merged.inc()
            self._m_bytes_matched.inc(len(data))
            if self.spans.enabled:
                self.spans.flow_event(
                    self._span_key(bc), "bridge.matched",
                    self.sim.now, self.host.name,
                    seq=seq, size=len(data),
                    depth_p=len(bc.p_queue) if bc.p_queue is not None else 0,
                    depth_s=len(bc.s_queue) if bc.s_queue is not None else 0,
                )
            emitted = True

    def _emit_data(
        self, bc: BridgeConnection, seq: int, payload: bytes, retransmission: bool = False
    ) -> None:
        ack = bc.merge.merged_ack()
        flags = FLAG_PSH | (FLAG_ACK if ack is not None else 0)
        segment = TcpSegment(
            src_port=bc.local_port,
            dst_port=bc.peer_port,
            seq=seq,
            ack=ack if ack is not None else 0,
            flags=flags,
            window=bc.merge.merged_window(),
            payload=payload,
        )
        self._emit(bc, segment)
        bc.merge.note_sent(ack)
        bc.sent_hwm = seq_max(bc.sent_hwm, segment.seq_end)
        self._trace(
            "bridge.p.emit_data",
            seq=seq,
            len=len(payload),
            rtx=retransmission,
            ack=segment.ack,
        )
        if not retransmission and self._resume_watch:
            self._note_resume_merged(bc)

    def _emit_fin_if_ready(self, bc: BridgeConnection) -> bool:
        """Emit the merged FIN once both replicas have closed and all
        payload before the FIN has been sent."""
        if bc.fin_sent or bc.fin_p is None or bc.fin_s is None:
            return False
        if bc.fin_p != bc.fin_s:
            self._mark_broken(
                bc, PayloadMismatch(f"FIN positions differ: {bc.fin_p} vs {bc.fin_s}")
            )
            return False
        if len(bc.p_queue) or len(bc.s_queue):
            return False
        if bc.sent_hwm != bc.fin_p:
            return False  # unmatched payload still outstanding
        self._emit_fin(bc)
        bc.fin_sent = True
        bc.sent_hwm = seq_add(bc.fin_p, 1)
        return True

    def _emit_fin(self, bc: BridgeConnection) -> None:
        ack = bc.merge.merged_ack()
        segment = TcpSegment(
            src_port=bc.local_port,
            dst_port=bc.peer_port,
            seq=bc.fin_p if bc.fin_p is not None else bc.sent_hwm,
            ack=ack if ack is not None else 0,
            flags=FLAG_FIN | (FLAG_ACK if ack is not None else 0),
            window=bc.merge.merged_window(),
        )
        self._emit(bc, segment)
        bc.merge.note_sent(ack)
        self._trace("bridge.p.emit_fin", seq=segment.seq)

    def _maybe_empty_ack(self, bc: BridgeConnection) -> None:
        if bc.sent_hwm is None:
            return
        if bc.merge.should_send_empty_ack():
            self._send_empty_ack(bc)
            return
        # The merged ACK did not advance, but if *both* replicas repeated
        # their pure ACK since our last emission the peer is provably
        # resending (lost ACK, lost segment awaiting fast retransmit, or
        # a zero-window probe) and must hear the duplicate.
        if min(bc.dup_p, bc.dup_s) > 0 and bc.merge.merged_ack() is not None:
            self._send_empty_ack(bc, duplicate=True)

    def _send_empty_ack(self, bc: BridgeConnection, duplicate: bool = False) -> None:
        ack = bc.merge.merged_ack()
        segment = TcpSegment(
            src_port=bc.local_port,
            dst_port=bc.peer_port,
            seq=bc.sent_hwm,
            ack=ack,
            flags=FLAG_ACK,
            window=bc.merge.merged_window(),
        )
        self._emit(bc, segment)
        bc.merge.note_sent(ack)
        bc.merge.note_empty_ack()
        self.empty_acks_sent += 1
        self._m_empty_acks.inc()
        self._trace("bridge.p.empty_ack", ack=ack, dup=duplicate)

    def _emit(self, bc: BridgeConnection, segment: TcpSegment) -> None:
        # Constructing the outgoing segment costs CPU (mbuf surgery plus
        # the incremental checksum update); emission order is preserved
        # because the host CPU is a FIFO.
        if segment.has_ack:
            # Any ACK-bearing emission answers the replicas' outstanding
            # duplicate ACKs; the next forwarded dup needs a fresh pair.
            bc.dup_p = bc.dup_s = 0
        sealed = segment.sealed(bc.local_ip, bc.peer_ip)
        self.host.cpu.run(
            self.emit_cost, self._send_datagram, sealed, bc.local_ip, bc.peer_ip
        )

    # ==================================================================
    # connection establishment  (§7.1, §7.2)
    # ==================================================================

    def _complete_handshake(self, bc: BridgeConnection) -> None:
        """Both SYNs are in: compute Δseq and emit the merged SYN."""
        bc.delta = SeqOffset(bc.syn_p.seq, bc.syn_s.seq)
        frontier = seq_add(bc.syn_s.seq, 1)
        bc.p_queue = OutputQueue(frontier, name="P", metrics=self.metrics, host=self.host.name)
        bc.s_queue = OutputQueue(frontier, name="S", metrics=self.metrics, host=self.host.name)
        mss_p = bc.syn_p.mss_option or bc.mss
        mss_s = bc.syn_s.mss_option or bc.mss
        bc.mss = min(mss_p, mss_s)
        if bc.syn_p.has_ack:
            bc.merge.update_from_primary(bc.syn_p.ack, bc.syn_p.window)
            bc.merge.update_from_secondary(bc.syn_s.ack, bc.syn_s.window)
        else:
            bc.merge.update_from_primary(None, bc.syn_p.window)
            bc.merge.update_from_secondary(None, bc.syn_s.window)
        bc.sent_hwm = frontier
        bc.syn_emitted = True
        self._reemit_syn(bc)
        self._trace(
            "bridge.p.syn_merged",
            delta=bc.delta.delta,
            mss=bc.mss,
            role=bc.role,
        )
        if self.spans.enabled:
            self.spans.flow_event(
                self._span_key(bc), "bridge.syn_merged",
                self.sim.now, self.host.name,
                delta=bc.delta.delta, mss=bc.mss, role=bc.role,
            )

    def _reemit_syn(self, bc: BridgeConnection) -> None:
        """(Re)send the merged SYN / SYN-ACK with min-MSS and min-window."""
        if not bc.syn_emitted:
            return
        ack = bc.merge.merged_ack()
        flags = FLAG_SYN | (FLAG_ACK if ack is not None else 0)
        segment = TcpSegment(
            src_port=bc.local_port,
            dst_port=bc.peer_port,
            seq=bc.syn_s.seq,
            ack=ack if ack is not None else 0,
            flags=flags,
            window=bc.merge.merged_window(),
            mss_option=bc.mss,
        )
        self._emit(bc, segment)
        bc.merge.note_sent(ack)

    # ==================================================================
    # secondary failure  (§6)
    # ==================================================================

    def secondary_failed(self) -> None:
        """Run the §6 procedure on every failover connection."""
        if self.secondary_down:
            return
        self.secondary_down = True
        self._trace("bridge.p.secondary_failed")
        for bc in list(self.connections.values()):
            self._enter_direct_mode(bc)

    def _enter_direct_mode(self, bc: BridgeConnection) -> None:
        if bc.broken or bc.direct:
            return
        bc.direct = True
        if bc.delta is None:
            # The secondary died before establishment: no client-visible
            # sequence numbers exist yet, so P's numbering wins (Δseq = 0).
            bc.delta = SeqOffset.identity()
            if bc.syn_p is not None and not bc.syn_emitted:
                self._direct_emit_syn(bc)
            return
        # §6 step 1: flush everything in the primary output queue.
        seq, data = bc.p_queue.drain()
        offset = 0
        while offset < len(data):
            chunk = data[offset : offset + bc.mss]
            self._emit_direct_data(bc, seq_add(seq, offset), chunk)
            offset += len(chunk)
        if (
            bc.fin_p is not None
            and not bc.fin_sent
            and bc.sent_hwm == bc.fin_p
        ):
            self._emit_fin(bc)
            bc.fin_sent = True
            bc.sent_hwm = seq_add(bc.fin_p, 1)
        # While the secondary was dying, every emission was capped at its
        # frozen ack_s; the peer may still be waiting for bytes P long
        # since acknowledged.  Re-announce P's true cumulative ACK once,
        # or the peer retransmits into a connection P has already closed.
        if (
            bc.merge.ack_p is not None
            and bc.sent_hwm is not None
            and (
                bc.merge.last_sent_ack is None
                or seq_gt(bc.merge.ack_p, bc.merge.last_sent_ack)
            )
        ):
            catch_up = TcpSegment(
                src_port=bc.local_port,
                dst_port=bc.peer_port,
                seq=bc.sent_hwm,
                ack=bc.merge.ack_p,
                flags=FLAG_ACK,
                window=bc.merge.win_p,
            )
            self._emit(bc, catch_up)
            bc.merge.note_sent(bc.merge.ack_p)
            self._trace("bridge.p.direct_catchup_ack", ack=bc.merge.ack_p)
        self._trace("bridge.p.flushed", bytes=len(data))
        if self.spans.enabled:
            self.spans.flow_event(
                self._span_key(bc), "bridge.flushed",
                self.sim.now, self.host.name, size=len(data),
            )

    def _direct_emit_syn(self, bc: BridgeConnection) -> None:
        """Emit P's own SYN unmodified (secondary died pre-establishment)."""
        syn = bc.syn_p
        frontier = seq_add(syn.seq, 1)
        bc.p_queue = OutputQueue(frontier, name="P", metrics=self.metrics, host=self.host.name)
        bc.s_queue = OutputQueue(frontier, name="S", metrics=self.metrics, host=self.host.name)
        if syn.mss_option is not None:
            bc.mss = syn.mss_option
        bc.sent_hwm = frontier
        bc.syn_emitted = True
        self._emit(bc, syn)

    def _emit_direct_data(self, bc: BridgeConnection, seq: int, payload: bytes) -> None:
        """Flush-path emission: P's own ACK and window (§6)."""
        ack = bc.merge.ack_p
        segment = TcpSegment(
            src_port=bc.local_port,
            dst_port=bc.peer_port,
            seq=seq,
            ack=ack if ack is not None else 0,
            flags=FLAG_PSH | (FLAG_ACK if ack is not None else 0),
            window=bc.merge.win_p,
            payload=payload,
        )
        self._emit(bc, segment)
        bc.sent_hwm = seq_max(bc.sent_hwm, segment.seq_end)

    def _direct_passthrough(self, bc: BridgeConnection, segment: TcpSegment) -> None:
        """§6 step 3: only the Δseq subtraction remains, forever."""
        s_seq = bc.delta.p_to_s(segment.seq)
        bc.merge.update_from_primary(
            segment.ack if segment.has_ack else None, segment.window
        )
        adjusted = replace(segment, seq=s_seq)
        self._emit(bc, adjusted)
        bc.sent_hwm = seq_max(bc.sent_hwm, adjusted.seq_end)
        if segment.fin and bc.fin_p is None:
            bc.fin_p = seq_add(s_seq, len(segment.payload))
            bc.fin_sent = True

    # ==================================================================
    # replica reintegration
    # ==================================================================

    def resume_merge(
        self,
        secondary_ip: Ipv4Address,
        resumes: Iterable[ConnectionResume],
        direct: bool = False,
    ) -> None:
        """Re-admit a merge partner on established connections.

        Two shapes, one mechanism:

        * the survivor is a promoted secondary (post-§5): this bridge is
          freshly built, every resume carries the identity Δseq because
          the survivor's TCBs already speak the client's numbering;
        * the survivor is a primary in §6 direct mode: the existing
          bridge connections keep their original Δseq and flip back from
          direct to queue-matching merge mode.

        Both output queues restart at the resume ``frontier`` (= snapshot
        ``snd_max`` in peer numbering): nothing at or above it has been
        emitted, so no byte is ever sent unmatched, and anything below it
        is by construction a retransmission handled by the §4 fast path.
        The merge is seeded with the snapshot ACK as *sent*, so resuming
        an idle connection does not provoke a spurious empty ACK.

        With ``direct=True`` the re-seeded connections stay in direct
        (divert) mode — used by a chain's new tail, which has no merge
        partner of its own.
        """
        if not direct:
            self.secondary_ip = secondary_ip
            self.secondary_down = False
        for resume in resumes:
            bc = self.connections.get(resume.key)
            if bc is None:
                bc = BridgeConnection(
                    peer_ip=resume.peer_ip,
                    peer_port=resume.peer_port,
                    local_ip=resume.local_ip,
                    local_port=resume.local_port,
                    role=resume.role,
                )
                bc.peer_fin_end = resume.peer_fin_end
                self.connections[resume.key] = bc
            bc.delta = resume.delta
            bc.mss = resume.mss
            bc.direct = direct
            bc.broken = False
            bc.syn_emitted = True
            bc.fin_p = None
            bc.fin_s = None
            bc.fin_sent = False
            bc.our_fin_acked = False
            bc.dup_p = 0
            bc.dup_s = 0
            bc.p_queue = OutputQueue(
                resume.frontier, name="P", metrics=self.metrics, host=self.host.name
            )
            bc.s_queue = OutputQueue(
                resume.frontier, name="S", metrics=self.metrics, host=self.host.name
            )
            bc.sent_hwm = resume.frontier
            bc.merge = AckWindowMerge(
                use_min_ack=self.ack_merging, use_min_window=self.window_merging
            )
            bc.merge.update_from_primary(resume.ack, resume.window)
            bc.merge.update_from_secondary(resume.ack, resume.window)
            bc.merge.note_sent(resume.ack)
            bc.resume_seen_p = False
            bc.resume_seen_s = False
            self.bypass_keys.discard(resume.key)
            if not direct:
                self._resume_watch.add(resume.key)
            self._trace(
                "bridge.p.resume_merge",
                peer=lambda: f"{resume.peer_ip}:{resume.peer_port}",
                frontier=resume.frontier,
                delta=resume.delta.delta,
                direct=direct,
            )

    def _note_resume_merged(self, bc: BridgeConnection) -> None:
        """First fresh (matched) emission after a resume: merge restored."""
        if bc.key not in self._resume_watch:
            return
        self._resume_watch.discard(bc.key)
        self._trace("bridge.p.resume_merged", peer=lambda: f"{bc.peer_ip}:{bc.peer_port}")
        if self.on_resume_merged is not None:
            self.on_resume_merged(bc.key)

    # ==================================================================
    # §8 late-segment handling and teardown
    # ==================================================================

    def _synthesize_ack_to_secondary(
        self, datagram: Ipv4Datagram, segment: TcpSegment
    ) -> None:
        """ACK a FIN the secondary retransmitted after state deletion.

        The ACK is built to look as if the client sent it: source is the
        original client address, destination the secondary itself.
        """
        ack_seg = TcpSegment(
            src_port=segment.dst_port,
            dst_port=segment.src_port,
            seq=segment.ack,
            ack=segment.seq_end,
            flags=FLAG_ACK,
            window=0xFFFF,
        )
        peer = segment.orig_dst_option
        sealed = ack_seg.sealed(peer, self.secondary_ip)
        self.late_acks_synthesized += 1
        self._m_late_acks.inc()
        self._trace("bridge.p.late_ack_to_s", seq=segment.seq)
        self._send_datagram(sealed, peer, self.secondary_ip)

    def _synthesize_ack_to_peer(
        self, datagram: Ipv4Datagram, segment: TcpSegment
    ) -> None:
        """ACK a FIN the client retransmitted after state deletion."""
        ack_seg = TcpSegment(
            src_port=segment.dst_port,
            dst_port=segment.src_port,
            seq=segment.ack,
            ack=segment.seq_end,
            flags=FLAG_ACK,
            window=0xFFFF,
        )
        sealed = ack_seg.sealed(datagram.dst, datagram.src)
        self.late_acks_synthesized += 1
        self._m_late_acks.inc()
        self._trace("bridge.p.late_ack_to_peer", seq=segment.seq)
        self._send_datagram(sealed, datagram.dst, datagram.src)

    def _emit_rst(self, bc: BridgeConnection, segment: TcpSegment, from_primary: bool) -> None:
        """Forward an abort: adjust the sequence number if Δseq is known."""
        if bc.delta is not None:
            adjusted = replace(segment, seq=bc.delta.p_to_s(segment.seq))
        else:
            adjusted = segment
        self._emit(bc, adjusted)
        self._delete(bc, reason="rst")

    def _mark_broken(self, bc: BridgeConnection, exc: Exception) -> None:
        bc.broken = True
        self.mismatches += 1
        self._m_mismatches.inc()
        self._trace("bridge.p.mismatch", error=exc.__str__, peer=bc.peer_ip.__str__)
        if self.spans.enabled:
            self.spans.flow_event(
                self._span_key(bc), "bridge.mismatch",
                self.sim.now, self.host.name, error=str(exc),
            )

    def _delete(self, bc: BridgeConnection, reason: str) -> None:
        self.connections.pop(bc.key, None)
        self._trace("bridge.p.conn_deleted", peer=lambda: f"{bc.peer_ip}:{bc.peer_port}",
                    reason=reason)

    def _local_ip_guess(self) -> Ipv4Address:
        return self.host.ip.primary_address()
