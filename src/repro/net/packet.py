"""Frame and datagram containers.

Payloads are plain Python objects exposing a ``wire_size`` (bytes on the
wire) so that transmission delays are computed faithfully without actually
serialising every header.  TCP segment payloads *are* real ``bytes`` —
stream integrity across failover is checked on true content.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.net.addresses import Ipv4Address, MacAddress

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806

ETHERNET_OVERHEAD = 18  # 14-byte header + 4-byte FCS (preamble modelled in IFG)
ETHERNET_MIN_FRAME = 64
ETHERNET_MTU = 1500  # maximum IP datagram carried in one frame

IPV4_HEADER_SIZE = 20

IPPROTO_ICMP = 1
IPPROTO_TCP = 6
IPPROTO_HEARTBEAT = 200  # simulation-private protocol for the fault detector


@dataclass(frozen=True)
class EthernetFrame:
    """Link-layer frame on a shared segment."""

    src: MacAddress
    dst: MacAddress
    ethertype: int
    payload: object

    @property
    def wire_size(self) -> int:
        inner = getattr(self.payload, "wire_size", 0)
        return max(ETHERNET_MIN_FRAME, inner + ETHERNET_OVERHEAD)


@dataclass(frozen=True)
class Ipv4Datagram:
    """Network-layer datagram.

    ``payload`` is a :class:`repro.tcp.segment.TcpSegment` for protocol 6 or
    a :class:`HeartbeatPayload` for the fault detector.  The simulator never
    fragments: TCP's MSS keeps segments within the Ethernet MTU and the
    heartbeats are tiny.
    """

    src: Ipv4Address
    dst: Ipv4Address
    protocol: int
    payload: object
    ttl: int = 64

    @property
    def wire_size(self) -> int:
        inner = getattr(self.payload, "wire_size", 0)
        return IPV4_HEADER_SIZE + inner

    def with_dst(self, dst: Ipv4Address) -> "Ipv4Datagram":
        return Ipv4Datagram(self.src, dst, self.protocol, self.payload, self.ttl)

    def decremented_ttl(self) -> Optional["Ipv4Datagram"]:
        """Datagram with TTL-1, or None if it must be dropped."""
        if self.ttl <= 1:
            return None
        return Ipv4Datagram(self.src, self.dst, self.protocol, self.payload, self.ttl - 1)


@dataclass(frozen=True)
class IcmpFragNeeded:
    """ICMP type 3 code 4 — fragmentation needed, next-hop MTU attached.

    Quotes the IP header + first 8 bytes of the offending datagram, which
    for TCP is exactly the 4-tuple and the sequence number.  Receivers
    validate the quoted sequence against the connection's send window
    before honouring the MTU hint (RFC 5927 §4.1).
    """

    mtu: int
    quoted_src: Ipv4Address
    quoted_dst: Ipv4Address
    quoted_src_port: int
    quoted_dst_port: int
    quoted_seq: int
    wire_size: int = field(default=36)


@dataclass(frozen=True)
class HeartbeatPayload:
    """Fault-detector heartbeat (simulation-private IP protocol)."""

    sender: str
    sequence: int
    wire_size: int = field(default=8)
