"""Off-path attacker primitives.

An :class:`AttackerHost` wraps an ordinary :class:`repro.net.host.Host`
attached to the victim segment and exposes spoofed-injection
primitives: forged TCP segments (RST/SYN/FIN/ACK with arbitrary
addresses), forged ICMP fragmentation-needed packets, and gratuitous
ARP claims.  The underlying IP layer performs no source-address
validation — exactly the real-world property these attacks rely on.

Every injection is traced as ``adversary.inject`` (with the spoofed
kind, the victim node and the forged sequence number) so the isolation
invariants can correlate attacker activity with victim-side teardown
records, and each attack burst opens a span root tagged with attacker
provenance so incident timelines show *who* was active when.

Determinism: the attacker draws randomness only from the rng stream it
is constructed with (a :class:`repro.sim.rng.RngRegistry` stream), so a
cell replays bit-for-bit from its seed.
"""

from __future__ import annotations

import random
from typing import Dict

from repro.net.addresses import Ipv4Address
from repro.net.host import Host
from repro.net.packet import IPPROTO_ICMP, IPPROTO_TCP, IcmpFragNeeded, Ipv4Datagram
from repro.tcp.segment import (
    FLAG_ACK,
    FLAG_FIN,
    FLAG_RST,
    FLAG_SYN,
    TcpSegment,
)

__all__ = ["AttackerHost"]


class AttackerHost:
    """Spoofing-only, off-path attacker bound to one host."""

    def __init__(self, host: Host, rng: random.Random):
        self.host = host
        self.sim = host.sim
        self.rng = rng
        self.tracer = host.tracer
        self.injections = 0
        self.injections_by_kind: Dict[str, int] = {}
        self._attack_spans: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # burst bookkeeping (phases + span provenance)
    # ------------------------------------------------------------------

    def start_attack(self, strategy: str, **detail: object) -> None:
        self.tracer.emit(
            self.sim.now, "adversary.attack_started", self.host.name,
            strategy=strategy, **detail,
        )
        self._attack_spans[strategy] = self.host.spans.trace_root(
            "adversary.attack", self.sim.now, self.host.name,
            strategy=strategy, attacker=self.host.name,
        )

    def finish_attack(self, strategy: str) -> None:
        self.tracer.emit(
            self.sim.now, "adversary.attack_finished", self.host.name,
            strategy=strategy, injections=self.injections,
        )
        ctx = self._attack_spans.pop(strategy, None)
        if ctx is not None:
            self.host.spans.finish(ctx, self.sim.now)

    # ------------------------------------------------------------------
    # injection primitives
    # ------------------------------------------------------------------

    def _record(self, kind: str, victim: str, **detail: object) -> None:
        self.injections += 1
        self.injections_by_kind[kind] = self.injections_by_kind.get(kind, 0) + 1
        self.tracer.emit(
            self.sim.now, "adversary.inject", self.host.name,
            kind=kind, victim=victim, **detail,
        )

    def spoof_tcp(
        self,
        src_ip: Ipv4Address,
        dst_ip: Ipv4Address,
        segment: TcpSegment,
        victim: str,
        kind: str,
    ) -> None:
        """Seal and inject a forged segment with an arbitrary source."""
        self._record(kind, victim, seq=segment.seq, ack=segment.ack,
                     dst=dst_ip.__str__)
        self.host.send_raw_datagram(Ipv4Datagram(
            src=src_ip,
            dst=dst_ip,
            protocol=IPPROTO_TCP,
            payload=segment.sealed(src_ip, dst_ip),
        ))

    def spoof_rst(
        self,
        src_ip: Ipv4Address,
        src_port: int,
        dst_ip: Ipv4Address,
        dst_port: int,
        seq: int,
        victim: str,
    ) -> None:
        self.spoof_tcp(src_ip, dst_ip, TcpSegment(
            src_port=src_port, dst_port=dst_port, seq=seq,
            ack=0, flags=FLAG_RST, window=0,
        ), victim, "rst")

    def spoof_syn(
        self,
        src_ip: Ipv4Address,
        src_port: int,
        dst_ip: Ipv4Address,
        dst_port: int,
        seq: int,
        victim: str,
    ) -> None:
        self.spoof_tcp(src_ip, dst_ip, TcpSegment(
            src_port=src_port, dst_port=dst_port, seq=seq,
            ack=0, flags=FLAG_SYN, window=65535,
        ), victim, "syn")

    def spoof_fin_ack(
        self,
        src_ip: Ipv4Address,
        src_port: int,
        dst_ip: Ipv4Address,
        dst_port: int,
        seq: int,
        ack: int,
        victim: str,
    ) -> None:
        self.spoof_tcp(src_ip, dst_ip, TcpSegment(
            src_port=src_port, dst_port=dst_port, seq=seq,
            ack=ack, flags=FLAG_FIN | FLAG_ACK, window=65535,
        ), victim, "fin")

    def spoof_frag_needed(
        self,
        dst_ip: Ipv4Address,
        quoted_src: Ipv4Address,
        quoted_src_port: int,
        quoted_dst: Ipv4Address,
        quoted_dst_port: int,
        quoted_seq: int,
        mtu: int,
        victim: str,
    ) -> None:
        """Forge an ICMP frag-needed quoting a guessed outgoing segment."""
        self._record("icmp", victim, seq=quoted_seq, mtu=mtu)
        self.host.send_raw_datagram(Ipv4Datagram(
            src=self.host.ip.primary_address(),
            dst=dst_ip,
            protocol=IPPROTO_ICMP,
            payload=IcmpFragNeeded(
                mtu=mtu,
                quoted_src=quoted_src,
                quoted_dst=quoted_dst,
                quoted_src_port=quoted_src_port,
                quoted_dst_port=quoted_dst_port,
                quoted_seq=quoted_seq,
            ),
        ))

    def claim_ip(self, ip: Ipv4Address, victim: str) -> None:
        """Broadcast a gratuitous ARP claiming ``ip`` with our own MAC."""
        self._record("arp", victim, ip=ip.__str__)
        self.host.eth_interface.arp.announce(ip)
