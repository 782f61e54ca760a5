"""Serialise traced frames into standard pcap files.

The simulator mostly passes header fields around as Python attributes,
but its checksum model is *bit-exact*: sums are kept in the mod-65535
domain, where adding a 32-bit field directly is identical to adding its
two 16-bit halves (2^16 ≡ 1 mod 65535).  That means the ``checksum``
carried by a sealed :class:`~repro.tcp.segment.TcpSegment` is a genuine
RFC 1071 Internet checksum for the byte layout produced here — the
files this module writes validate cleanly in Wireshark/tshark.

Layout notes:

* classic pcap, magic ``0xa1b2c3d4`` (microsecond timestamps),
  linktype 1 (Ethernet), no FCS;
* the MSS option is the standard kind 2/len 4; the paper's ORIG_DST
  option (§3.1) is emitted as the experimental kind 253 with len 8 —
  four address bytes followed by two zero pad bytes, matching the
  model's checksum contribution ``0xFD08 + addr``;
* heartbeats (simulation-private IP protocol 200) are 8 bytes:
  ``"HB"`` + 32-bit sequence + 2 pad bytes;
* capture points are ``eth.rx`` trace records, which the Ethernet
  segment emits exactly once per delivered frame and which carry the
  frame object in their detail.

Exports split frames into one capture per logical interface.  The
default ``role`` split distinguishes ``wire`` (client-visible LAN
traffic, including ARP and heartbeats) from ``divert`` (the P↔S
diverted path, identified by the ORIG_DST option); the ``segment``
split writes one capture per Ethernet segment — the multi-NIC view of
the cluster's dispatcher host.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.net.addresses import Ipv4Address, MacAddress
from repro.net.arp import ArpPacket
from repro.net.packet import (
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    EthernetFrame,
    HeartbeatPayload,
    IPPROTO_HEARTBEAT,
    IPPROTO_TCP,
    Ipv4Datagram,
)
from repro.sim.trace import Tracer
from repro.tcp.segment import TcpSegment

PCAP_MAGIC = 0xA1B2C3D4
PCAP_VERSION = (2, 4)
LINKTYPE_ETHERNET = 1
SNAPLEN = 65535

_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")


# ----------------------------------------------------------------------
# serialisation
# ----------------------------------------------------------------------


def _mac_bytes(mac: MacAddress) -> bytes:
    return mac.value.to_bytes(6, "big")


def _ip_bytes(ip: Ipv4Address) -> bytes:
    return ip.value.to_bytes(4, "big")


def serialize_tcp(segment: TcpSegment) -> bytes:
    """TCP header + options + payload, carrying the model's checksum."""
    options = b""
    if segment.mss_option is not None:
        options += struct.pack(">BBH", 2, 4, segment.mss_option)
    if segment.orig_dst_option is not None:
        options += struct.pack(">BB", 253, 8) + _ip_bytes(segment.orig_dst_option) + b"\x00\x00"
    header = struct.pack(
        ">HHIIHHHH",
        segment.src_port,
        segment.dst_port,
        segment.seq,
        segment.ack,
        segment._offset_flags_word(),
        segment.window,
        segment.checksum,
        0,  # urgent pointer
    )
    return header + options + segment.payload


def _ipv4_header_checksum(header: bytes) -> int:
    total = sum(struct.unpack(f">{len(header) // 2}H", header))
    return (~(total % 0xFFFF)) & 0xFFFF


def serialize_ipv4(datagram: Ipv4Datagram) -> bytes:
    if isinstance(datagram.payload, TcpSegment):
        body = serialize_tcp(datagram.payload)
    elif isinstance(datagram.payload, HeartbeatPayload):
        body = b"HB" + struct.pack(">I", datagram.payload.sequence & 0xFFFFFFFF) + b"\x00\x00"
    else:
        body = b"\x00" * getattr(datagram.payload, "wire_size", 0)
    header = struct.pack(
        ">BBHHHBBH4s4s",
        0x45,  # version 4, IHL 5
        0,
        20 + len(body),
        0,  # identification
        0,  # flags/fragment offset
        datagram.ttl,
        datagram.protocol,
        0,  # checksum placeholder
        _ip_bytes(datagram.src),
        _ip_bytes(datagram.dst),
    )
    checksum = _ipv4_header_checksum(header)
    return header[:10] + struct.pack(">H", checksum) + header[12:] + body


def serialize_arp(packet: ArpPacket) -> bytes:
    target_mac = packet.target_mac
    tha = _mac_bytes(target_mac) if target_mac is not None else b"\x00" * 6
    return (
        struct.pack(">HHBBH", 1, ETHERTYPE_IPV4, 6, 4, packet.op)
        + _mac_bytes(packet.sender_mac)
        + _ip_bytes(packet.sender_ip)
        + tha
        + _ip_bytes(packet.target_ip)
    )


def serialize_frame(frame: EthernetFrame) -> bytes:
    if isinstance(frame.payload, Ipv4Datagram):
        body = serialize_ipv4(frame.payload)
    elif isinstance(frame.payload, ArpPacket):
        body = serialize_arp(frame.payload)
    else:
        body = b""
    return _mac_bytes(frame.dst) + _mac_bytes(frame.src) + struct.pack(">H", frame.ethertype) + body


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------


def write_pcap(path, packets: List[Tuple[float, EthernetFrame]]) -> int:
    """Write ``(time, frame)`` pairs to ``path``; returns the packet count."""
    with open(path, "wb") as fh:
        fh.write(
            _GLOBAL_HEADER.pack(
                PCAP_MAGIC, PCAP_VERSION[0], PCAP_VERSION[1], 0, 0, SNAPLEN, LINKTYPE_ETHERNET
            )
        )
        for when, frame in packets:
            data = serialize_frame(frame)
            ts_sec = int(when)
            ts_usec = int(round((when - ts_sec) * 1e6))
            if ts_usec >= 1_000_000:
                ts_sec += 1
                ts_usec -= 1_000_000
            fh.write(_RECORD_HEADER.pack(ts_sec, ts_usec, len(data), len(data)))
            fh.write(data)
    return len(packets)


def classify_interface(frame: EthernetFrame) -> str:
    """``divert`` for the P↔S diverted path (ORIG_DST present), else ``wire``."""
    payload = frame.payload
    if isinstance(payload, Ipv4Datagram) and isinstance(payload.payload, TcpSegment):
        if payload.payload.orig_dst_option is not None:
            return "divert"
    return "wire"


def captured_frames(tracer: Tracer) -> List[Tuple[float, EthernetFrame]]:
    """All frames recorded by the tracer (``eth.rx`` records with frames)."""
    return [(when, frame) for when, _segment, frame in captured_segments(tracer)]


def captured_segments(tracer: Tracer) -> List[Tuple[float, str, EthernetFrame]]:
    """``(time, segment, frame)`` triples for every recorded frame.

    The segment name is the ``eth.rx`` record's emitting node — each
    Ethernet segment emits exactly one such record per delivered frame,
    so on a multi-segment topology (the cluster's front LAN plus one
    backend LAN per shard, all meeting at the dispatcher host) this
    recovers which NIC saw the frame.
    """
    out = []
    for record in tracer.select("eth.rx"):
        frame = record.detail.get("frame")
        if isinstance(frame, EthernetFrame):
            out.append((record.time, record.node, frame))
    return out


def export_pcaps(tracer: Tracer, base_path, split: str = "role") -> Dict[str, int]:
    """Write one ``<base>.<interface>.pcap`` per logical interface.

    ``split`` picks what an "interface" means:

    * ``"role"`` (default) — the two-host failover testbed view:
      ``wire`` (client-visible LAN) vs ``divert`` (the P↔S path,
      identified by the ORIG_DST option);
    * ``"segment"`` — one capture per Ethernet segment, keyed by the
      segment's name.  This is the multi-NIC view of the cluster's
      dispatcher host, which straddles the front LAN and every backend
      LAN: each NIC's traffic lands in its own file, the way a real
      multi-homed capture (``tcpdump -i ethN``) would.

    Returns ``{interface: packet count}`` for the files written; an
    interface with no traffic produces no file.
    """
    if split not in ("role", "segment"):
        raise ValueError(f"split must be 'role' or 'segment', got {split!r}")
    by_interface: Dict[str, List[Tuple[float, EthernetFrame]]] = {}
    for when, segment, frame in captured_segments(tracer):
        interface = segment if split == "segment" else classify_interface(frame)
        by_interface.setdefault(interface, []).append((when, frame))
    counts = {}
    for interface, packets in sorted(by_interface.items()):
        counts[interface] = write_pcap(f"{base_path}.{interface}.pcap", packets)
    return counts


# ----------------------------------------------------------------------
# reading (round-trip verification, no external tooling needed)
# ----------------------------------------------------------------------


@dataclass
class CapturedPacket:
    """One parsed pcap record."""

    time: float
    src_mac: MacAddress
    dst_mac: MacAddress
    ethertype: int
    src_ip: Optional[Ipv4Address] = None
    dst_ip: Optional[Ipv4Address] = None
    protocol: Optional[int] = None
    ttl: Optional[int] = None
    segment: Optional[TcpSegment] = None
    heartbeat_sequence: Optional[int] = None
    arp_op: Optional[int] = None
    raw: bytes = field(default=b"", repr=False)


def _parse_tcp(data: bytes) -> TcpSegment:
    (src_port, dst_port, seq, ack, offset_flags, window, checksum, _urgent) = struct.unpack(
        ">HHIIHHHH", data[:20]
    )
    header_len = (offset_flags >> 12) * 4
    flags = offset_flags & 0x01FF
    options = data[20:header_len]
    payload = data[header_len:]
    mss = None
    orig_dst = None
    i = 0
    while i < len(options):
        kind = options[i]
        if kind == 0:  # end of options
            break
        if kind == 1:  # NOP
            i += 1
            continue
        length = options[i + 1]
        if kind == 2 and length == 4:
            mss = struct.unpack(">H", options[i + 2 : i + 4])[0]
        elif kind == 253 and length == 8:
            orig_dst = Ipv4Address(int.from_bytes(options[i + 2 : i + 6], "big"))
        i += length
    return TcpSegment(
        src_port=src_port,
        dst_port=dst_port,
        seq=seq,
        ack=ack,
        flags=flags,
        window=window,
        payload=payload,
        mss_option=mss,
        orig_dst_option=orig_dst,
        checksum=checksum,
    )


def internet_checksum_ok(src_ip: Ipv4Address, dst_ip: Ipv4Address, tcp_bytes: bytes) -> bool:
    """Validate the checksum of serialised TCP bytes the classical way:
    the one's-complement sum of pseudo-header + segment (checksum field
    included) must fold to zero."""
    pseudo = _ip_bytes(src_ip) + _ip_bytes(dst_ip) + struct.pack(">HH", IPPROTO_TCP, len(tcp_bytes))
    data = pseudo + tcp_bytes
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f">{len(data) // 2}H", data))
    return total % 0xFFFF == 0


def read_pcap(path) -> List[CapturedPacket]:
    """Parse a pcap file written by :func:`write_pcap` (or any classic
    little-endian microsecond pcap carrying Ethernet frames)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, _vmaj, _vmin, _tz, _sig, _snap, linktype = _GLOBAL_HEADER.unpack_from(blob, 0)
    if magic != PCAP_MAGIC:
        raise ValueError(f"unsupported pcap magic 0x{magic:08x}")
    if linktype != LINKTYPE_ETHERNET:
        raise ValueError(f"unsupported linktype {linktype}")
    offset = _GLOBAL_HEADER.size
    packets = []
    while offset < len(blob):
        ts_sec, ts_usec, incl_len, _orig_len = _RECORD_HEADER.unpack_from(blob, offset)
        offset += _RECORD_HEADER.size
        data = blob[offset : offset + incl_len]
        offset += incl_len
        dst_mac = MacAddress(int.from_bytes(data[0:6], "big"))
        src_mac = MacAddress(int.from_bytes(data[6:12], "big"))
        ethertype = struct.unpack(">H", data[12:14])[0]
        packet = CapturedPacket(
            time=ts_sec + ts_usec / 1e6,
            src_mac=src_mac,
            dst_mac=dst_mac,
            ethertype=ethertype,
            raw=data,
        )
        body = data[14:]
        if ethertype == ETHERTYPE_IPV4 and len(body) >= 20:
            ihl = (body[0] & 0x0F) * 4
            total_len = struct.unpack(">H", body[2:4])[0]
            packet.ttl = body[8]
            packet.protocol = body[9]
            packet.src_ip = Ipv4Address(int.from_bytes(body[12:16], "big"))
            packet.dst_ip = Ipv4Address(int.from_bytes(body[16:20], "big"))
            inner = body[ihl:total_len]
            if packet.protocol == IPPROTO_TCP:
                packet.segment = _parse_tcp(inner)
            elif packet.protocol == IPPROTO_HEARTBEAT and len(inner) >= 6:
                packet.heartbeat_sequence = struct.unpack(">I", inner[2:6])[0]
        elif ethertype == ETHERTYPE_ARP and len(body) >= 28:
            packet.arp_op = struct.unpack(">H", body[6:8])[0]
            packet.src_ip = Ipv4Address(int.from_bytes(body[14:18], "big"))
            packet.dst_ip = Ipv4Address(int.from_bytes(body[24:28], "big"))
        packets.append(packet)
    return packets
