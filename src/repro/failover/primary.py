"""The primary server bridge: the shell around the §3–§8 core.

The algorithm — two output queues, common prefix, Δseq, min-ACK and
min-window, empty ACKs, §4 retransmissions, §6 direct mode, §7 SYN merge,
§8 FIN merge, resume after reintegration — lives in
:mod:`repro.failover.core` and knows nothing of a host.  This module is
what puts it on one:

* **classify** each outgoing segment and incoming datagram (covered by the
  failover configuration? which connection key? bypassed? from the peer or
  diverted by the secondary? a §8 late segment for deleted state?);
* **charge** the host CPU and call the core's step for that source;
* provide the core's two calls — a :class:`PrimaryBridge` *is* a
  :class:`~repro.failover.core.BridgeCore`, as a TCP connection is its
  core: ``_emit`` seals a segment and sends it after ``emit_cost``,
  ``_event`` (see :mod:`repro.failover.bridge`) reports to counters,
  metrics, tracer and spans from the one ``EVENTS`` table below.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Set

from repro.failover.bridge import BridgeBase, EventSpec
from repro.failover.core import (
    BridgeConnection,
    BridgeCore,
    BridgeKey,
    ConnectionResume,
    synthesise,
)
from repro.failover.queues import OutputQueue
from repro.net.addresses import Ipv4Address
from repro.net.packet import IPPROTO_TCP, Ipv4Datagram
from repro.obs.spans import flow_key
from repro.tcp.segment import TcpSegment

if TYPE_CHECKING:
    from repro.failover.options import FailoverConfig
    from repro.net.host import Host
    from repro.sim.trace import Tracer

__all__ = ["BridgeConnection", "BridgeKey", "ConnectionResume", "PrimaryBridge"]


class PrimaryBridge(BridgeBase, BridgeCore):
    """Merging bridge on the primary server."""

    EVENTS = {
        # -- connection state (§3, §7, §8, reintegration) ---------------
        "conn_created": EventSpec(
            trace=("bridge.p.conn_created", "peer", "local_port", "role"),
            span=("bridge.conn_created", "role"),
        ),
        "syn_merged": EventSpec(
            trace=("bridge.p.syn_merged", "delta", "mss", "role"),
            span=("bridge.syn_merged", "delta", "mss", "role"),
        ),
        "conn_deleted": EventSpec(trace=("bridge.p.conn_deleted", "peer", "reason")),
        "resume_merge": EventSpec(
            trace=("bridge.p.resume_merge", "peer", "frontier", "delta", "direct")
        ),
        "resume_merged": EventSpec(
            trace=("bridge.p.resume_merged", "peer"), hook="on_resume_merged"
        ),
        # -- merged emission (§3.4, §4) ---------------------------------
        "matched": EventSpec(
            stat="segments_merged",
            counters=(
                ("bridge.segments_merged", None), ("bridge.bytes_matched", "size"),
            ),
            span=("bridge.matched", "seq", "size", "depth_p", "depth_s"),
        ),
        "emit_data": EventSpec(
            trace=("bridge.p.emit_data", "seq", "len", "rtx", "ack")
        ),
        "emit_fin": EventSpec(trace=("bridge.p.emit_fin", "seq")),
        "empty_ack": EventSpec(
            stat="empty_acks_sent", counters=(("bridge.empty_acks", None),),
            trace=("bridge.p.empty_ack", "ack", "dup"),
        ),
        "rtx_forwarded": EventSpec(
            stat="retransmissions_forwarded",
            counters=(("bridge.retransmissions_forwarded", None),),
        ),
        "queue_depth": EventSpec(histograms=(
            ("bridge.queue_depth", "depth_p", {"queue": "P"}),
            ("bridge.queue_depth", "depth_s", {"queue": "S"}),
        )),
        "mismatch": EventSpec(
            stat="mismatches", counters=(("bridge.mismatches", None),),
            trace=("bridge.p.mismatch", "error", "peer"),
            span=("bridge.mismatch", "error"),
        ),
        # -- segments the bridge cannot place ---------------------------
        "early_drop": EventSpec(trace=("bridge.p.early_drop", "seq")),
        "early_drop_s": EventSpec(trace=("bridge.p.early_drop_s", "seq")),
        "late_local_drop": EventSpec(trace=("bridge.p.late_local_drop", "seq")),
        "ack_before_delta": EventSpec(trace=("bridge.p.ack_before_delta", "seq")),
        "s_rst_dropped": EventSpec(trace=("bridge.p.s_rst_dropped", "peer")),
        "rst_ignored": EventSpec(
            stat="rsts_ignored", counters=(("bridge.rsts_ignored", None),),
            trace=("bridge.p.rst_ignored", "peer", "seq"),
        ),
        # -- secondary failure (§6) -------------------------------------
        "secondary_failed": EventSpec(trace=("bridge.p.secondary_failed",)),
        "flushed": EventSpec(
            trace=("bridge.p.flushed", "bytes"), span=("bridge.flushed", "size")
        ),
        "direct_catchup_ack": EventSpec(trace=("bridge.p.direct_catchup_ack", "ack")),
        # -- §8 ACKs for connections whose state is already deleted ------
        "late_ack_to_s": EventSpec(
            stat="late_acks_synthesized",
            counters=(("bridge.late_acks_synthesized", None),),
            trace=("bridge.p.late_ack_to_s", "seq"),
        ),
        "late_ack_to_peer": EventSpec(
            stat="late_acks_synthesized",
            counters=(("bridge.late_acks_synthesized", None),),
            trace=("bridge.p.late_ack_to_peer", "seq"),
        ),
    }

    def __init__(
        self,
        host: "Host",
        config: "FailoverConfig",
        secondary_ip: Ipv4Address,
        tracer: Optional["Tracer"] = None,
        ack_merging: bool = True,
        window_merging: bool = True,
    ):
        BridgeBase.__init__(self, host, config, tracer=tracer)
        # The merge rules are ablation knobs (benchmarks only).
        BridgeCore.__init__(
            self,
            partial(OutputQueue, metrics=self.metrics, host=host.name),
            ack_merging=ack_merging,
            window_merging=window_merging,
        )
        self.emit_cost = host.profile.emit_cost
        self.secondary_ip = secondary_ip
        self.secondary_down = False
        # Reintegration: connections that could not be resumed (already
        # closing when the replica rejoined) keep talking to the peer
        # without bridge interference; the coordinator is told through
        # ``on_resume_merged`` when a resumed connection's merge is back.
        self.bypass_keys: Set[BridgeKey] = set()
        self.on_resume_merged: Optional[Callable[[BridgeKey], None]] = None

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
                self._event("late_local_drop", seq=segment.seq)
                return True
            bc = self._create_connection(
                key, src_ip, role="server" if segment.has_ack else "client"
            )
        self.host.cpu.run(self.bridge_cost, self.from_primary, bc, segment)
        return True

    def _create_connection(
        self, key: BridgeKey, local_ip: Ipv4Address, role: str
    ) -> BridgeConnection:
        bc = self.create(key, local_ip, role, direct=self.secondary_down)
        # The secondary's diverted copies ride a rewritten 4-tuple
        # (a_s:local → a_p:peer); alias it so the divert leg's TCP and
        # Ethernet spans land in the same trace as the client leg.
        self.spans.alias_flow(
            flow_key(self.secondary_ip, bc.local_port, bc.local_ip, bc.peer_port),
            flow_key(bc.peer_ip, bc.peer_port, bc.local_ip, bc.local_port),
        )
        return bc

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
                    self.host.ip.primary_address(),
                    role="server" if segment.has_ack else "client",
                )
            elif segment.rst:
                return None  # primary's own TCP will have RST'd already
            else:
                # §8: a FIN (or trailing segment) retransmitted by S after
                # we deleted the connection state: acknowledge it to S,
                # built to look as if the client sent it.
                self._late_ack("late_ack_to_s", segment, peer, self.secondary_ip)
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
        self.host.cpu.run(cost, self.from_secondary, bc, segment)
        return None

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
                self._late_ack(
                    "late_ack_to_peer", segment, datagram.dst, datagram.src
                )
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
                self.delete(bc, reason="peer_rst")
            else:
                self._event("rst_ignored", bc, peer=bc.peer, seq=segment.seq)
            return datagram
        rewritten = self.from_peer(bc, segment, datagram.src, datagram.dst)
        if rewritten is None:
            return None
        if rewritten is segment:
            return datagram
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

    def _late_ack(
        self, event: str, segment: TcpSegment, src_ip: Ipv4Address, dst_ip: Ipv4Address
    ) -> None:
        """§8: acknowledge a segment retransmitted after the connection's
        state was deleted (no state, so no core: sent as ``src_ip``)."""
        ack = synthesise(
            segment.dst_port, segment.src_port, segment.ack, segment.seq_end, 0xFFFF
        )
        self._event(event, seq=segment.seq)
        self._send_datagram(ack.sealed(src_ip, dst_ip), src_ip, dst_ip)

    # ==================================================================
    # the core's way out: the one route from the algorithm to the wire
    # ==================================================================

    def _emit(self, bc: BridgeConnection, segment: TcpSegment) -> None:
        # Constructing the outgoing segment costs CPU (mbuf surgery plus
        # the incremental checksum update); emission order is preserved
        # because the host CPU is a FIFO.
        sealed = segment.sealed(bc.local_ip, bc.peer_ip)
        self.host.cpu.run(
            self.emit_cost, self._send_datagram, sealed, bc.local_ip, bc.peer_ip
        )

    # ==================================================================
    # secondary failure  (§6) and replica reintegration
    # ==================================================================

    def secondary_failed(self) -> None:
        """Run the §6 procedure on every failover connection."""
        if self.secondary_down:
            return
        self.secondary_down = True
        self._event("secondary_failed")
        for bc in list(self.connections.values()):
            self.enter_direct(bc)

    def resume_merge(
        self,
        secondary_ip: Ipv4Address,
        resumes: Iterable[ConnectionResume],
        direct: bool = False,
    ) -> None:
        """Re-admit a merge partner on established connections.

        Two shapes, one mechanism (:meth:`BridgeCore.resume` per connection):

        * the survivor is a promoted secondary (post-§5): this bridge is
          freshly built, every resume carries the identity Δseq because
          the survivor's TCBs already speak the client's numbering;
        * the survivor is a primary in §6 direct mode: the existing
          bridge connections keep their original Δseq and flip back from
          direct to queue-matching merge mode.

        With ``direct=True`` the re-seeded connections stay in direct
        (divert) mode — used by a chain's new tail, which has no merge
        partner of its own.
        """
        if not direct:
            self.secondary_ip = secondary_ip
            self.secondary_down = False
        for resume in resumes:
            self.resume(resume, direct)
            self.bypass_keys.discard(resume.key)
