"""The bridge's algorithm as the paper writes it (§3.2–§3.4, §4, §6, §7, §8).

All peer-visible traffic of a failover connection is synthesised here:

* the primary's own TCP output is *never* sent directly — its payload is
  mapped into S-space (Δseq) and parked in the **primary output queue**;
* the secondary's diverted segments land in the **secondary output
  queue**; the byte-for-byte common prefix of the two queues is emitted to
  the peer with ACK = min(ack_P, ack_S) and window = min(win_P, win_S);
* retransmissions (payload below the high-water mark already sent to the
  peer) are recognised and forwarded immediately without queueing (§4);
* empty segments are synthesised when the merged ACK advances with no
  payload to carry it (§3.4);
* connection establishment merges the two SYNs (min MSS, min window) and
  records Δseq (§7); termination merges the two FINs (§8);
* on secondary failure the §6 procedure flushes the primary queue and
  drops into *direct* mode: segments pass with only the Δseq adjustment,
  forever.

State is keyed by (peer address, peer port, local port): the peer is the
unreplicated endpoint — the client for client-initiated connections, the
back-end server ``T`` for server-initiated ones (§7.2).  Both replicas
allocate identical local ports (deterministic ephemeral allocation), so
the key is stable across the three traffic sources.

Nothing here knows a simulator, a host, an IP layer or an observer: the
core talks to the outside through two calls only, ``_emit`` and ``_event``,
which whoever runs it provides by subclassing it, as a TCP shell does its
core.  :class:`~repro.failover.primary.PrimaryBridge` is the subclass that
runs it on a host; a list-appending one drives it in the model test.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, Optional, Set, Tuple

from repro.failover.delta import SeqOffset
from repro.failover.merge import AckWindowMerge
from repro.failover.queues import OutputQueue, PayloadMismatch, match_prefix
from repro.net.addresses import Ipv4Address
from repro.tcp.segment import (
    FLAG_ACK,
    FLAG_FIN,
    FLAG_PSH,
    FLAG_SYN,
    TcpSegment,
    incremental_rewrite,
)
from repro.tcp.seqnum import seq_add, seq_gt, seq_lt, seq_max, seq_sub

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


def _chunks(seq: int, data: bytes, mss: int) -> Iterator[Tuple[int, bytes]]:
    """``data`` starting at ``seq`` cut into segments of at most ``mss``."""
    for offset in range(0, len(data), mss):
        yield seq_add(seq, offset), data[offset : offset + mss]


def synthesise(
    src_port: int,
    dst_port: int,
    seq: int,
    ack: Optional[int],
    window: int,
    flags: int = 0,
    payload: bytes = b"",
    mss_option: Optional[int] = None,
) -> TcpSegment:
    """The one place the bridge builds a segment of its own (unsealed:
    whoever sends it seals it).  ``ack=None`` leaves the ACK flag off."""
    return TcpSegment(
        src_port=src_port,
        dst_port=dst_port,
        seq=seq,
        ack=ack if ack is not None else 0,
        flags=flags | (FLAG_ACK if ack is not None else 0),
        window=window,
        payload=payload,
        mss_option=mss_option,
    )


class BridgeConnection:
    """Per-connection bridge state on the primary (one per 4-tuple)."""

    __slots__ = (
        "peer_ip", "peer_port", "local_ip", "local_port", "role",
        "syn_p", "syn_s", "syn_emitted", "delta", "mss", "p_queue", "s_queue",
        "merge", "sent_hwm", "fin_p", "fin_s", "fin_sent", "peer_fin_end",
        "our_fin_acked", "direct", "broken", "dup_p", "dup_s", "resume_seen",
    )

    def __init__(
        self,
        peer_ip: Ipv4Address,
        peer_port: int,
        local_ip: Ipv4Address,
        local_port: int,
        role: str,
        merge: AckWindowMerge,
        delta: Optional[SeqOffset] = None,
        mss: int = 1460,
        peer_fin_end: Optional[int] = None,
        direct: bool = False,
    ) -> None:
        self.peer_ip = peer_ip
        self.peer_port = peer_port
        self.local_ip = local_ip
        self.local_port = local_port
        self.role = role  # 'server' (client-initiated) or 'client' (server-initiated)
        self.syn_p: Optional[TcpSegment] = None
        self.syn_s: Optional[TcpSegment] = None
        self.syn_emitted = False
        self.delta = delta
        self.mss = mss
        self.p_queue: Optional[OutputQueue] = None
        self.s_queue: Optional[OutputQueue] = None
        self.merge = merge
        self.sent_hwm: Optional[int] = None  # S-space seq never yet sent to the peer
        self.fin_p: Optional[int] = None  # S-space seq of each replica's FIN
        self.fin_s: Optional[int] = None
        self.fin_sent = False
        self.peer_fin_end = peer_fin_end  # peer-space seq_end of the peer's FIN
        self.our_fin_acked = False
        self.direct = direct  # §6 mode after secondary failure
        self.broken = False  # replica divergence detected
        # Duplicate-ACK forwarding: pure ACKs repeating each replica's level
        # since the last peer-facing emission.  A TCP only repeats a pure ACK
        # when provoked by a segment arrival, so min(dup_p, dup_s) > 0 means
        # the peer is retransmitting (it missed our ACK) or probing — the
        # merged dup-ACK must go out even though the merged ACK did not move.
        self.dup_p = 0
        self.dup_s = 0
        # Resume-merge watch: which replicas' output has reached the bridge
        # since resume() re-seeded this connection.  The merge counts as
        # restored once both flow again — matched payload is not required
        # (a pure-upload server emits nothing but ACKs).
        self.resume_seen: Tuple[str, ...] = ()

    @property
    def key(self) -> BridgeKey:
        return (self.peer_ip, self.peer_port, self.local_port)

    def peer(self) -> str:
        """``ip:port`` of the unreplicated endpoint (a deferred trace detail)."""
        return f"{self.peer_ip}:{self.peer_port}"

    def ready_to_delete(self) -> bool:
        """§8: both directions closed and both FINs acknowledged — in
        direct mode by P alone, since the dead secondary's ACK never moves."""
        if not (self.fin_sent and self.our_fin_acked):
            return False
        if self.peer_fin_end is None:
            return False
        ack = self.merge.ack_p if self.direct else self.merge.merged_ack()
        return ack is not None and seq_gt(ack, seq_sub(self.peer_fin_end, 1))


@dataclass
class ConnectionResume:
    """Everything :meth:`BridgeCore.resume` needs to re-seed one
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


class BridgeCore:
    """Every transition on :class:`BridgeConnection`, and nothing else."""

    def __init__(
        self,
        new_queue: Callable[..., OutputQueue] = OutputQueue,
        ack_merging: bool = True,
        window_merging: bool = True,
    ):
        self.new_queue = new_queue  # (frontier, name=) -> OutputQueue
        self.ack_merging = ack_merging
        self.window_merging = window_merging
        self.connections: Dict[BridgeKey, BridgeConnection] = {}
        # Keys whose first post-resume merged emission is still outstanding.
        self.resume_watch: Set[BridgeKey] = set()

    def _emit(self, bc: BridgeConnection, segment: TcpSegment) -> None:
        """Send ``segment`` to ``bc``'s peer: the one way out, called while
        ``bc`` still is what the segment was built from."""
        raise NotImplementedError

    def _event(self, name: str, subject: object = None, **fields: object) -> None:
        """``name`` happened; a callable field is a deferred renderer."""
        raise NotImplementedError

    # ==================================================================
    # connection state: creation, resume re-seed, deletion
    # ==================================================================

    def _construct(
        self,
        key: BridgeKey,
        local_ip: Ipv4Address,
        role: str,
        direct: bool,
        delta: Optional[SeqOffset],
        mss: int = 1460,
        peer_fin_end: Optional[int] = None,
        into: Optional[BridgeConnection] = None,
    ) -> BridgeConnection:
        """The one constructor path: fresh state for ``key``, adopted by
        ``into`` when the connection already exists (steps queued on the
        host CPU hold that object, so it is re-seeded in place)."""
        bc = BridgeConnection(
            peer_ip=key[0],
            peer_port=key[1],
            local_ip=local_ip,
            local_port=key[2],
            role=role,
            delta=delta,
            mss=mss,
            merge=AckWindowMerge(
                use_min_ack=self.ack_merging, use_min_window=self.window_merging
            ),
            peer_fin_end=peer_fin_end,
            direct=direct,
        )
        if into is not None:
            for name in BridgeConnection.__slots__:
                setattr(into, name, getattr(bc, name))
            bc = into
        self.connections[key] = bc
        return bc

    def create(
        self, key: BridgeKey, local_ip: Ipv4Address, role: str, direct: bool
    ) -> BridgeConnection:
        """State for a connection whose first SYN was just seen.  Born after
        the secondary failed (``direct``) it is in direct mode from the
        start, with P's own numbering (Δseq = 0)."""
        bc = self._construct(
            key, local_ip, role, direct, SeqOffset.identity() if direct else None
        )
        self._event("conn_created", bc, peer=bc.peer, local_port=key[2], role=role)
        return bc

    def resume(self, resume: ConnectionResume, direct: bool) -> None:
        """Re-seed one established connection when a merge partner joins.

        Both output queues restart at ``resume.frontier`` (= snapshot
        ``snd_max`` in peer numbering): nothing at or above it has been
        emitted, so no byte is ever sent unmatched, and anything below it
        is by construction a retransmission handled by the §4 fast path.
        The merge is seeded with the snapshot ACK as *sent*, so resuming
        an idle connection does not provoke a spurious empty ACK.  An
        existing connection keeps its local identity and the peer's FIN.
        """
        old = self.connections.get(resume.key)
        kept = resume if old is None else old
        bc = self._construct(
            resume.key, kept.local_ip, kept.role, direct, resume.delta,
            resume.mss, kept.peer_fin_end, into=old,
        )
        self._open(bc, resume.frontier)
        bc.merge.update_from_primary(resume.ack, resume.window)
        bc.merge.update_from_secondary(resume.ack, resume.window)
        bc.merge.note_sent(resume.ack)
        if not direct:
            self.resume_watch.add(resume.key)
        self._event(
            "resume_merge", bc, peer=bc.peer, frontier=resume.frontier,
            delta=resume.delta.delta, direct=direct,
        )

    def _open(self, bc: BridgeConnection, frontier: int) -> None:
        """Both output queues (re)start empty at ``frontier``, the first
        sequence number not yet sent to the peer."""
        bc.p_queue = self.new_queue(frontier, name="P")
        bc.s_queue = self.new_queue(frontier, name="S")
        bc.sent_hwm = frontier
        bc.syn_emitted = True

    def delete(self, bc: BridgeConnection, reason: str) -> None:
        self.connections.pop(bc.key, None)
        self._event("conn_deleted", bc, peer=bc.peer, reason=reason)

    def _note_resume_merged(self, bc: BridgeConnection) -> None:
        """First fresh (matched) emission after a resume: merge restored."""
        if bc.key in self.resume_watch:
            self.resume_watch.discard(bc.key)
            self._event("resume_merged", bc, peer=bc.peer)

    def _mark_broken(self, bc: BridgeConnection, exc: Exception) -> None:
        bc.broken = True
        self._event("mismatch", bc, error=exc.__str__, peer=bc.peer_ip.__str__)

    # ==================================================================
    # the three traffic sources  (§3.2)
    # ==================================================================

    def from_primary(self, bc: BridgeConnection, segment: TcpSegment) -> None:
        """A segment the primary's own TCP layer addressed to the peer."""
        if bc.broken:
            return
        if segment.rst:
            # Forward an abort: adjust the sequence number if Δseq is known.
            if bc.delta is not None:
                segment = replace(segment, seq=bc.delta.p_to_s(segment.seq))
            self._emit(bc, segment)
            self.delete(bc, reason="rst")
            return
        if segment.syn:
            bc.syn_p = segment
            if bc.direct:
                if bc.syn_emitted:
                    self._passthrough(bc, segment)
                else:
                    self._direct_syn(bc)
            elif bc.syn_emitted:
                self._emit_syn(bc)  # primary's SYN retransmission
            elif bc.syn_s is not None:
                self._merge_syns(bc)
            return
        if bc.direct:
            self._passthrough(bc, segment)
            return
        if bc.delta is None:
            # Data-bearing segment before the merged SYN: cannot map yet.
            self._event("early_drop", bc, seq=segment.seq)
            return
        s_seq = bc.delta.p_to_s(segment.seq)
        if _is_pure_dup_ack(segment, bc.merge.ack_p):
            bc.dup_p += 1
        bc.merge.update_from_primary(
            segment.ack if segment.has_ack else None, segment.window
        )
        self._ingest(bc, "P", s_seq, segment)

    def from_secondary(self, bc: BridgeConnection, segment: TcpSegment) -> None:
        """A segment the secondary diverted to us (already in S-space)."""
        if bc.broken or bc.direct:
            return
        if segment.rst:
            self._event("s_rst_dropped", bc, peer=bc.peer_ip.__str__)
            return
        if segment.syn:
            bc.syn_s = segment
            if bc.syn_emitted:
                self._emit_syn(bc)  # secondary's SYN retransmission
            elif bc.syn_p is not None:
                self._merge_syns(bc)
            return
        if bc.delta is None:
            self._event("early_drop_s", bc, seq=segment.seq)
            return
        if _is_pure_dup_ack(segment, bc.merge.ack_s):
            bc.dup_s += 1
        bc.merge.update_from_secondary(
            segment.ack if segment.has_ack else None, segment.window
        )
        self._ingest(bc, "S", segment.seq, segment)

    def from_peer(
        self,
        bc: BridgeConnection,
        segment: TcpSegment,
        src_ip: Ipv4Address,
        dst_ip: Ipv4Address,
    ) -> Optional[TcpSegment]:
        """A non-RST segment from the unreplicated peer, as P's TCP must
        see it: its ACK (S-space) mapped into P's numbering with the
        checksum fixed for ``src_ip → dst_ip``.  None consumes it."""
        if segment.fin:
            bc.peer_fin_end = segment.seq_end
        if not segment.has_ack:
            return segment
        if bc.delta is None:
            # ACK in S-space before we computed Δseq: cannot translate.
            self._event("ack_before_delta", bc, seq=segment.seq)
            return None
        if bc.fin_sent and bc.fin_p is not None and seq_gt(segment.ack, bc.fin_p):
            bc.our_fin_acked = True
        rewritten = incremental_rewrite(
            segment, old_src=src_ip, old_dst=dst_ip, ack=bc.delta.s_to_p(segment.ack)
        )
        if bc.ready_to_delete():
            self.delete(bc, reason="closed")
        return rewritten

    # ==================================================================
    # the §3.4 engine: queues, matching, retransmissions, empty ACKs
    # ==================================================================

    def _ingest(
        self, bc: BridgeConnection, source: str, s_seq: int, segment: TcpSegment
    ) -> None:
        """A replica's segment in merge mode, ``s_seq`` its S-space position."""
        emitted = False
        payload = segment.payload
        if payload:
            # §4: payload at or below the high-water mark was already sent
            # to the client — this is a retransmission; forward immediately.
            already = 0
            if seq_lt(s_seq, bc.sent_hwm):
                already = min(seq_sub(bc.sent_hwm, s_seq), len(payload))
                self._emit_data(bc, s_seq, payload[:already], retransmission=True)
                self._event("rtx_forwarded", bc)
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
        if segment.fin:
            fin_seq = seq_add(s_seq, len(payload))
            if source == "P":
                bc.fin_p = fin_seq
            else:
                bc.fin_s = fin_seq
            if bc.fin_sent and seq_lt(fin_seq, bc.sent_hwm):
                self._emit_fin(bc)  # retransmitted FIN → forward again
                self._event("rtx_forwarded", bc)
                emitted = True
        if self._emit_fin_if_ready(bc):
            emitted = True
        if not emitted:
            self._maybe_empty_ack(bc)
        self._event("queue_depth", bc, depth_p=len(bc.p_queue), depth_s=len(bc.s_queue))
        if self.resume_watch and bc.key in self.resume_watch:
            if source not in bc.resume_seen:
                bc.resume_seen += (source,)
            if len(bc.resume_seen) == 2:
                self._note_resume_merged(bc)
        if bc.ready_to_delete():
            self.delete(bc, reason="closed")

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
            for chunk_seq, chunk in _chunks(seq, data, bc.mss):
                self._emit_data(bc, chunk_seq, chunk)
            self._event(  # the depths are read only if a span records them
                "matched", bc, seq=seq, size=len(data),
                depth_p=bc.p_queue.__len__, depth_s=bc.s_queue.__len__,
            )
            emitted = True

    def _emit_merged(
        self,
        bc: BridgeConnection,
        flags: int,
        seq: int,
        payload: bytes = b"",
        mss_option: Optional[int] = None,
    ) -> TcpSegment:
        """One bridge-made segment with the merged ACK and window (§3.2)."""
        ack = bc.merge.merged_ack()
        segment = synthesise(
            bc.local_port, bc.peer_port, seq, ack, bc.merge.merged_window(),
            flags, payload, mss_option,
        )
        if ack is not None:
            # An ACK answers the replicas' outstanding duplicate ACKs; the
            # next forwarded dup needs a fresh pair.  (Merge mode emits only
            # here; direct mode never reads the counts, a resume zeroes them.)
            bc.dup_p = bc.dup_s = 0
        self._emit(bc, segment)
        bc.merge.note_sent(ack)
        return segment

    def _emit_data(
        self, bc: BridgeConnection, seq: int, payload: bytes, retransmission: bool = False
    ) -> None:
        segment = self._emit_merged(bc, FLAG_PSH, seq, payload)
        bc.sent_hwm = seq_max(bc.sent_hwm, segment.seq_end)
        self._event(
            "emit_data", bc,
            seq=seq, len=len(payload), rtx=retransmission, ack=segment.ack,
        )
        if not retransmission and self.resume_watch:
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
        self._emit_first_fin(bc)
        return True

    def _emit_first_fin(self, bc: BridgeConnection) -> None:
        self._emit_fin(bc)
        bc.fin_sent = True
        bc.sent_hwm = seq_add(bc.fin_p, 1)

    def _emit_fin(self, bc: BridgeConnection) -> None:
        segment = self._emit_merged(bc, FLAG_FIN, bc.fin_p)
        self._event("emit_fin", bc, seq=segment.seq)

    def _maybe_empty_ack(self, bc: BridgeConnection) -> None:
        if bc.sent_hwm is None:
            return
        if bc.merge.should_send_empty_ack():
            self._emit_empty_ack(bc, duplicate=False)
        # The merged ACK did not advance, but if *both* replicas repeated
        # their pure ACK since our last emission the peer is provably
        # resending (lost ACK, lost segment awaiting fast retransmit, or
        # a zero-window probe) and must hear the duplicate.
        elif min(bc.dup_p, bc.dup_s) > 0 and bc.merge.merged_ack() is not None:
            self._emit_empty_ack(bc, duplicate=True)

    def _emit_empty_ack(self, bc: BridgeConnection, duplicate: bool) -> None:
        segment = self._emit_merged(bc, 0, bc.sent_hwm)
        self._event("empty_ack", bc, ack=segment.ack, dup=duplicate)

    # ==================================================================
    # connection establishment  (§7.1, §7.2)
    # ==================================================================

    def _merge_syns(self, bc: BridgeConnection) -> None:
        """Both SYNs are in: compute Δseq and emit the merged SYN."""
        syn_p, syn_s = bc.syn_p, bc.syn_s
        bc.delta = SeqOffset(syn_p.seq, syn_s.seq)
        self._open(bc, seq_add(syn_s.seq, 1))
        bc.mss = min(syn_p.mss_option or bc.mss, syn_s.mss_option or bc.mss)
        acked = syn_p.has_ack  # a SYN-ACK pair (§7.1) or two bare SYNs (§7.2)
        bc.merge.update_from_primary(syn_p.ack if acked else None, syn_p.window)
        bc.merge.update_from_secondary(syn_s.ack if acked else None, syn_s.window)
        self._emit_syn(bc)
        self._event("syn_merged", bc, delta=bc.delta.delta, mss=bc.mss, role=bc.role)

    def _emit_syn(self, bc: BridgeConnection) -> None:
        """(Re)send the merged SYN / SYN-ACK with min-MSS and min-window."""
        self._emit_merged(bc, FLAG_SYN, bc.syn_s.seq, mss_option=bc.mss)

    # ==================================================================
    # secondary failure  (§6)
    # ==================================================================

    def enter_direct(self, bc: BridgeConnection) -> None:
        """Run the §6 procedure on one connection."""
        if bc.broken or bc.direct:
            return
        bc.direct = True
        if bc.delta is None:
            # The secondary died before establishment: no client-visible
            # sequence numbers exist yet, so P's numbering wins (Δseq = 0).
            bc.delta = SeqOffset.identity()
            if bc.syn_p is not None and not bc.syn_emitted:
                self._direct_syn(bc)
            return
        merge = bc.merge
        # §6 step 1: flush everything in the primary output queue, with
        # P's own ACK and window.
        seq, data = bc.p_queue.drain()
        for chunk_seq, chunk in _chunks(seq, data, bc.mss):
            segment = synthesise(
                bc.local_port, bc.peer_port, chunk_seq, merge.ack_p, merge.win_p,
                FLAG_PSH, chunk,
            )
            self._emit(bc, segment)
            bc.sent_hwm = seq_max(bc.sent_hwm, segment.seq_end)
        if bc.fin_p is not None and not bc.fin_sent and bc.sent_hwm == bc.fin_p:
            self._emit_first_fin(bc)
        # While the secondary was dying, every emission was capped at its
        # frozen ack_s; the peer may still be waiting for bytes P long
        # since acknowledged.  Re-announce P's true cumulative ACK once,
        # or the peer retransmits into a connection P has already closed.
        if merge.ack_p is not None and (
            merge.last_sent_ack is None or seq_gt(merge.ack_p, merge.last_sent_ack)
        ):
            self._emit(bc, synthesise(
                bc.local_port, bc.peer_port, bc.sent_hwm, merge.ack_p, merge.win_p
            ))
            merge.note_sent(merge.ack_p)
            self._event("direct_catchup_ack", bc, ack=merge.ack_p)
        self._event("flushed", bc, bytes=len(data), size=len(data))

    def _direct_syn(self, bc: BridgeConnection) -> None:
        """Emit P's own SYN unmodified (secondary died pre-establishment)."""
        syn = bc.syn_p
        self._open(bc, seq_add(syn.seq, 1))
        if syn.mss_option is not None:
            bc.mss = syn.mss_option
        self._emit(bc, syn)

    def _passthrough(self, bc: BridgeConnection, segment: TcpSegment) -> None:
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
        if bc.ready_to_delete():  # P's ACK of the peer's FIN ends it here
            self.delete(bc, reason="closed")
