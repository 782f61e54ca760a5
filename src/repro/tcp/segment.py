"""TCP segments, header options and the Internet checksum.

Checksums are modelled exactly because the paper's bridge rewrites
addressed fields on the fly and explicitly uses *incremental* checksum
update ("we subtract the original bytes from the checksum, and add the new
bytes", §3.1 — the RFC 1624 technique).  We keep sums in the mod-65535
domain where one's-complement addition is plain modular addition, and the
payload contribution is ``int.from_bytes(payload) % 65535`` (valid because
2^16 ≡ 1 mod 65535), which is O(n) in C and fast enough for 100 MB streams.

Two header options are modelled:

* ``MSS`` (kind 2) — negotiated at connection establishment; the bridge
  advertises the *minimum* of the two replicas' MSS values (§2, §7.1);
* ``ORIG_DST`` (kind 253, experimental) — carries the original client
  destination when the secondary's segments are diverted to the primary
  (§3.1: "The original destination address of the segment is included in
  the segment as a TCP header option").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.addresses import Ipv4Address
from repro.tcp.seqnum import seq_add, seq_valid

FLAG_FIN = 0x01
FLAG_SYN = 0x02
FLAG_RST = 0x04
FLAG_PSH = 0x08
FLAG_ACK = 0x10

TCP_BASE_HEADER = 20
MSS_OPTION_SIZE = 4
ORIG_DST_OPTION_SIZE = 8

_CSUM_MOD = 0xFFFF  # one's-complement sums live in Z/65535


def csum_fold(value: int) -> int:
    """Reduce any non-negative integer into the one's-complement sum domain."""
    return value % _CSUM_MOD


def csum_finalize(total: int) -> int:
    """Turn a folded sum into the on-wire checksum field."""
    return (~(total % _CSUM_MOD)) & 0xFFFF


def csum_unfinalize(checksum: int) -> int:
    """Recover the folded sum from a checksum field value."""
    return ((~checksum) & 0xFFFF) % _CSUM_MOD


def payload_sum(payload: bytes) -> int:
    """Folded one's-complement sum of a byte string (padded to 16 bits)."""
    if not payload:
        return 0
    if len(payload) % 2:
        payload = payload + b"\x00"
    return int.from_bytes(payload, "big") % _CSUM_MOD


def _options_size(mss_option: Optional[int], orig_dst_option: Optional[Ipv4Address]) -> int:
    size = 0
    if mss_option is not None:
        size += MSS_OPTION_SIZE
    if orig_dst_option is not None:
        size += ORIG_DST_OPTION_SIZE
    return size


def _offset_flags(header_size: int, flags: int) -> int:
    """The 16-bit header word holding the data offset and the flags."""
    return ((header_size // 4) << 12) | flags


@dataclass(frozen=True)
class TcpSegment:
    """One TCP segment.  Immutable: rewrites produce new instances, built
    by one constructor call each (``__post_init__`` validates every one)."""

    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: int
    window: int
    payload: bytes = b""
    mss_option: Optional[int] = None
    orig_dst_option: Optional[Ipv4Address] = None
    checksum: int = 0

    def __post_init__(self) -> None:
        if not seq_valid(self.seq) or not seq_valid(self.ack):
            raise ValueError("sequence/ack number out of 32-bit range")
        if not 0 <= self.window <= 0xFFFF:
            raise ValueError("window out of 16-bit range")

    # -- flag helpers --------------------------------------------------------

    @property
    def syn(self) -> bool:
        return bool(self.flags & FLAG_SYN)

    @property
    def fin(self) -> bool:
        return bool(self.flags & FLAG_FIN)

    @property
    def rst(self) -> bool:
        return bool(self.flags & FLAG_RST)

    @property
    def has_ack(self) -> bool:
        return bool(self.flags & FLAG_ACK)

    @property
    def psh(self) -> bool:
        return bool(self.flags & FLAG_PSH)

    # -- sizes ---------------------------------------------------------------

    # header_size and wire_size are read several times per segment per hop
    # (checksum, frame sizing, MTU checks), so both spell the option
    # arithmetic out instead of chaining through further properties.

    @property
    def header_size(self) -> int:
        size = TCP_BASE_HEADER
        if self.mss_option is not None:
            size += MSS_OPTION_SIZE
        if self.orig_dst_option is not None:
            size += ORIG_DST_OPTION_SIZE
        return size

    @property
    def wire_size(self) -> int:
        size = TCP_BASE_HEADER + len(self.payload)
        if self.mss_option is not None:
            size += MSS_OPTION_SIZE
        if self.orig_dst_option is not None:
            size += ORIG_DST_OPTION_SIZE
        return size

    @property
    def seq_length(self) -> int:
        """Sequence space consumed: payload plus SYN/FIN virtual bytes."""
        return len(self.payload) + (1 if self.syn else 0) + (1 if self.fin else 0)

    @property
    def seq_end(self) -> int:
        return seq_add(self.seq, self.seq_length)

    # -- checksum ------------------------------------------------------------

    def _offset_flags_word(self) -> int:
        return _offset_flags(self.header_size, self.flags)

    def header_sum(self, src_ip: Ipv4Address, dst_ip: Ipv4Address) -> int:
        """Folded sum of pseudo-header, header and options (not payload)."""
        header_size = TCP_BASE_HEADER
        options = 0
        if self.mss_option is not None:
            header_size += MSS_OPTION_SIZE
            options += 0x0204 + self.mss_option
        if self.orig_dst_option is not None:
            header_size += ORIG_DST_OPTION_SIZE
            options += 0xFD08 + self.orig_dst_option.value
        total = (
            src_ip.value  # replint: allow(seq) -- one's-complement folding: seq/ack enter the mod-65535 checksum domain as 32-bit words, not sequence points
            + dst_ip.value
            + 6  # protocol
            + header_size + len(self.payload)  # TCP length in pseudo-header
            + self.src_port
            + self.dst_port
            + self.seq
            + self.ack
            + _offset_flags(header_size, self.flags)
            + self.window
            + options
        )
        return csum_fold(total)

    def compute_checksum(self, src_ip: Ipv4Address, dst_ip: Ipv4Address) -> int:
        return csum_finalize(self.header_sum(src_ip, dst_ip) + payload_sum(self.payload))

    def sealed(self, src_ip: Ipv4Address, dst_ip: Ipv4Address) -> "TcpSegment":
        """Copy of this segment with a freshly computed checksum."""
        return TcpSegment(
            self.src_port, self.dst_port, self.seq, self.ack, self.flags,
            self.window, self.payload, self.mss_option, self.orig_dst_option,
            self.compute_checksum(src_ip, dst_ip),
        )

    def checksum_ok(self, src_ip: Ipv4Address, dst_ip: Ipv4Address) -> bool:
        return self.checksum == self.compute_checksum(src_ip, dst_ip)

    def flag_names(self) -> str:
        names = []
        for bit, name in (
            (FLAG_SYN, "SYN"),
            (FLAG_ACK, "ACK"),
            (FLAG_FIN, "FIN"),
            (FLAG_RST, "RST"),
            (FLAG_PSH, "PSH"),
        ):
            if self.flags & bit:
                names.append(name)
        return "|".join(names) or "none"

    def __repr__(self) -> str:
        return (
            f"TcpSegment({self.src_port}->{self.dst_port} {self.flag_names()}"
            f" seq={self.seq} ack={self.ack} win={self.window}"
            f" len={len(self.payload)})"
        )


_UNSET = object()


def incremental_rewrite(
    segment: TcpSegment,
    old_src: Ipv4Address,
    old_dst: Ipv4Address,
    new_src: Optional[Ipv4Address] = None,
    new_dst: Optional[Ipv4Address] = None,
    seq: Optional[int] = None,
    ack: Optional[int] = None,
    window: Optional[int] = None,
    flags: Optional[int] = None,
    orig_dst: object = _UNSET,
) -> TcpSegment:
    """Rewrite header fields, updating the checksum *incrementally*.

    This is the bridge's RFC 1624-style update: the payload is never
    touched, only the delta between old and new header/pseudo-header words
    is applied to the folded sum.  ``orig_dst`` may be an
    :class:`Ipv4Address` (add/replace the ORIG_DST option), ``None``
    (remove it) or left unset (keep as is).
    """
    total = csum_unfinalize(segment.checksum)

    def swap(old_value: int, new_value: int) -> None:
        nonlocal total
        # replint: allow(seq-taint) -- RFC 1624 ones-complement update: header words are 16-bit sum terms, not sequence-space points
        total = csum_fold(total + _CSUM_MOD - (old_value % _CSUM_MOD) + new_value)

    if new_src is not None and new_src != old_src:
        swap(old_src.value, new_src.value)
    if new_dst is not None and new_dst != old_dst:
        swap(old_dst.value, new_dst.value)
    new_seq = segment.seq if seq is None else seq
    if new_seq != segment.seq:
        swap(segment.seq, new_seq)
    new_ack = segment.ack if ack is None else ack
    if new_ack != segment.ack:
        swap(segment.ack, new_ack)
    new_window = segment.window if window is None else window
    if new_window != segment.window:
        swap(segment.window, new_window)
    new_flags = segment.flags if flags is None else flags
    if orig_dst is _UNSET:
        new_orig = segment.orig_dst_option
    elif orig_dst is None or isinstance(orig_dst, Ipv4Address):
        new_orig = orig_dst
    else:
        raise TypeError(f"orig_dst must be an Ipv4Address or None, not {orig_dst!r}")

    if new_orig is not segment.orig_dst_option or new_flags != segment.flags:
        # Option / flag changes move the data offset and the TCP length.
        old_header = segment.header_size
        new_header = TCP_BASE_HEADER + _options_size(segment.mss_option, new_orig)
        swap(
            _offset_flags(old_header, segment.flags),
            _offset_flags(new_header, new_flags),
        )
        swap(old_header + len(segment.payload), new_header + len(segment.payload))
        swap(
            0xFD08 + segment.orig_dst_option.value
            if segment.orig_dst_option is not None
            else 0,
            0xFD08 + new_orig.value if new_orig is not None else 0,
        )

    return TcpSegment(
        segment.src_port, segment.dst_port, new_seq, new_ack, new_flags,
        new_window, segment.payload, segment.mss_option, new_orig,
        csum_finalize(total),
    )
