"""The secondary server bridge (§3.1 and §5).

In normal operation the secondary:

* runs its NIC in promiscuous mode and picks up every client datagram
  addressed to the primary; for TCP-failover traffic it rewrites the
  destination ``a_p → a_s`` (incremental checksum update) and passes the
  datagram up, so "TCP assumes that C sent this segment directly to S";
* diverts every segment its own TCP layer addresses to the client:
  destination rewritten ``a_c → a_p`` and the original destination carried
  in the ORIG_DST header option.

On primary failure the §5 procedure runs (see
:mod:`repro.failover.takeover`): stop sending, disable promiscuous mode
and both translations, take over ``a_p``, then resume — after which this
bridge is inert and the secondary "behaves like any standard TCP server."
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.net.addresses import Ipv4Address
from repro.net.packet import IPPROTO_TCP, Ipv4Datagram
from repro.failover.bridge import BridgeBase, EventSpec, divert_out, translate_in
from repro.tcp.segment import TcpSegment, incremental_rewrite

if TYPE_CHECKING:
    from repro.failover.options import FailoverConfig
    from repro.net.host import Host
    from repro.sim.trace import Tracer


class SecondaryBridge(BridgeBase):
    """Address-translating bridge on the secondary server."""

    EVENTS = {
        "snooped": EventSpec(
            stat="segments_snooped", counters=(("bridge.segments_snooped", None),)
        ),
        "translate_in": EventSpec(
            stat="segments_translated_in",
            counters=(("bridge.segments_translated_in", None),),
            trace=("bridge.s.translate_in", "src", "port", "seq"),
        ),
        "divert_out": EventSpec(
            stat="segments_diverted_out",
            counters=(("bridge.segments_diverted_out", None),),
            trace=("bridge.s.divert_out", "orig_dst", "seq", "len", "flags"),
        ),
        "prepare_failover": EventSpec(trace=("bridge.s.prepare_failover",)),
        "complete_failover": EventSpec(
            trace=("bridge.s.complete_failover", "released")
        ),
    }

    def __init__(
        self,
        host: "Host",
        config: "FailoverConfig",
        primary_ip: Ipv4Address,
        tracer: Optional["Tracer"] = None,
    ):
        super().__init__(host, config, tracer=tracer)
        self.primary_ip = primary_ip
        self.active = True
        self.holding = False
        self._held: List[Tuple[TcpSegment, Ipv4Address, Ipv4Address]] = []

    def install(self) -> None:
        """Attach to the host and enable promiscuous snooping."""
        super().install()
        self.host.nic.set_promiscuous(True)

    # ------------------------------------------------------------------
    # receive side: snoop and translate a_p -> a_s  (§3.1)
    # ------------------------------------------------------------------

    def datagram_from_ip(self, datagram: Ipv4Datagram) -> Optional[Ipv4Datagram]:
        if not self.active:
            return datagram
        if self.host.ip.owns(datagram.dst):
            return datagram  # genuinely ours (ordinary traffic, heartbeats)
        self._event("snooped")
        if datagram.protocol != IPPROTO_TCP or datagram.dst != self.primary_ip:
            return None  # snooped, not for the replicated service
        segment = datagram.payload
        local = self.local_ip()
        flag = self._connection_flag(
            local, segment.dst_port, datagram.src, segment.src_port
        )
        if not self._covers(segment.dst_port, flag):
            return None  # primary's ordinary (non-failover) traffic
        self._event(
            "translate_in",
            src=datagram.src.__str__, port=segment.dst_port, seq=segment.seq,
        )
        return translate_in(datagram, local)

    # ------------------------------------------------------------------
    # send side: divert client-bound segments to the primary  (§3.1)
    # ------------------------------------------------------------------

    def segment_from_tcp(
        self, segment: TcpSegment, src_ip: Ipv4Address, dst_ip: Ipv4Address
    ) -> bool:
        if not self.active:
            return False
        if dst_ip == self.primary_ip:
            return False  # direct server-to-server traffic, if any
        if not self._is_failover_outgoing(segment, src_ip, dst_ip):
            return False
        if self.holding:
            # §5 step 1: "stop sending TCP segments ... addressed to the client".
            self._held.append((segment, src_ip, dst_ip))
            return True
        diverted = divert_out(segment, src_ip, dst_ip, self.primary_ip)
        self._event(
            "divert_out",
            orig_dst=dst_ip.__str__, seq=segment.seq, len=len(segment.payload),
            flags=segment.flag_names,
        )
        # The rewrite costs CPU; the FIFO CPU keeps segments ordered.
        self.host.cpu.run(
            self.bridge_cost, self._send_datagram, diverted, src_ip, self.primary_ip
        )
        return True

    # ------------------------------------------------------------------
    # failover procedure (§5) — driven by repro.failover.takeover
    # ------------------------------------------------------------------

    def prepare_failover(self) -> None:
        """§5 steps 1–4: hold output, stop snooping, stop translating."""
        self.holding = True
        self.host.nic.set_promiscuous(False)
        self._event("prepare_failover")

    def complete_failover(self, new_local_ip: Ipv4Address) -> None:
        """§5 epilogue: release held segments and go inert.

        Held segments were generated while the TCBs were still homed on
        ``a_s``; they are re-sourced to the taken-over address before
        transmission (the kernel implementation gets this for free from its
        address translation; we make it explicit).
        """
        self.active = False
        self.holding = False
        held, self._held = self._held, []
        for segment, src_ip, dst_ip in held:
            resent = incremental_rewrite(
                segment, old_src=src_ip, old_dst=dst_ip, new_src=new_local_ip
            )
            self._send_datagram(resent, new_local_ip, dst_ip)
        self._event("complete_failover", released=len(held))

    def local_ip(self) -> Ipv4Address:
        return self.host.ip.primary_address()
