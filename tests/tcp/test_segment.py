"""Unit and property tests for segments and the Internet checksum.

The key property: the bridge's *incremental* checksum rewrite must agree
exactly with a from-scratch recomputation for every field combination —
this is the §3.1 technique the whole diversion scheme rests on.
"""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.addresses import Ipv4Address
from repro.tcp.segment import (
    FLAG_ACK,
    FLAG_FIN,
    FLAG_PSH,
    FLAG_SYN,
    TcpSegment,
    incremental_rewrite,
    payload_sum,
)

IP_A = Ipv4Address("10.0.0.1")
IP_B = Ipv4Address("10.0.0.2")
IP_C = Ipv4Address("10.0.0.3")


def make(payload=b"hello", flags=FLAG_ACK, **kwargs):
    defaults = dict(
        src_port=1234, dst_port=80, seq=1000, ack=2000, flags=flags,
        window=8192, payload=payload,
    )
    defaults.update(kwargs)
    return TcpSegment(**defaults)


def test_flag_properties():
    seg = make(flags=FLAG_SYN | FLAG_ACK)
    assert seg.syn and seg.has_ack and not seg.fin and not seg.rst


def test_seq_length_counts_syn_and_fin():
    assert make(payload=b"abc", flags=FLAG_ACK).seq_length == 3
    assert make(payload=b"", flags=FLAG_SYN).seq_length == 1
    assert make(payload=b"ab", flags=FLAG_FIN | FLAG_ACK).seq_length == 3


def test_wire_size_includes_options():
    assert make(payload=b"").wire_size == 20
    assert make(payload=b"", mss_option=1460).wire_size == 24
    assert make(payload=b"", orig_dst_option=IP_C).wire_size == 28
    assert make(payload=b"", mss_option=1460, orig_dst_option=IP_C).wire_size == 32


def test_checksum_roundtrip():
    seg = make().sealed(IP_A, IP_B)
    assert seg.checksum_ok(IP_A, IP_B)


def test_checksum_detects_wrong_pseudo_header():
    seg = make().sealed(IP_A, IP_B)
    assert not seg.checksum_ok(IP_A, IP_C)


def test_checksum_detects_payload_corruption():
    seg = make(payload=b"hello").sealed(IP_A, IP_B)
    import dataclasses

    corrupted = dataclasses.replace(seg, payload=b"hellp")
    assert not corrupted.checksum_ok(IP_A, IP_B)


def test_payload_sum_odd_length_padding():
    assert payload_sum(b"\x01") == payload_sum(b"\x01\x00")


def test_window_and_seq_validation():
    with pytest.raises(ValueError):
        make(window=70000)
    with pytest.raises(ValueError):
        make(seq=1 << 32)


def test_incremental_rewrite_dst_matches_full():
    seg = make().sealed(IP_A, IP_B)
    rewritten = incremental_rewrite(seg, old_src=IP_A, old_dst=IP_B, new_dst=IP_C)
    assert rewritten.checksum_ok(IP_A, IP_C)


def test_incremental_rewrite_ack_matches_full():
    seg = make().sealed(IP_A, IP_B)
    rewritten = incremental_rewrite(seg, old_src=IP_A, old_dst=IP_B, ack=999999)
    assert rewritten.ack == 999999
    assert rewritten.checksum_ok(IP_A, IP_B)


def test_incremental_add_orig_dst_option():
    seg = make().sealed(IP_A, IP_B)
    rewritten = incremental_rewrite(
        seg, old_src=IP_A, old_dst=IP_B, new_dst=IP_C, orig_dst=IP_B
    )
    assert rewritten.orig_dst_option == IP_B
    assert rewritten.checksum_ok(IP_A, IP_C)


def test_incremental_remove_orig_dst_option():
    seg = make(orig_dst_option=IP_B).sealed(IP_A, IP_C)
    rewritten = incremental_rewrite(seg, old_src=IP_A, old_dst=IP_C, orig_dst=None)
    assert rewritten.orig_dst_option is None
    assert rewritten.checksum_ok(IP_A, IP_C)


ips = st.integers(min_value=0, max_value=(1 << 32) - 1).map(Ipv4Address)
ports = st.integers(min_value=1, max_value=65535)
seqs = st.integers(min_value=0, max_value=(1 << 32) - 1)
windows = st.integers(min_value=0, max_value=65535)
payloads = st.binary(max_size=200)
flag_bits = st.integers(min_value=0, max_value=0x1F)


@given(ips, ips, ports, ports, seqs, seqs, windows, payloads, flag_bits)
def test_checksum_roundtrip_property(src, dst, sp, dp, seq, ack, win, payload, flags):
    seg = TcpSegment(
        src_port=sp, dst_port=dp, seq=seq, ack=ack, flags=flags,
        window=win, payload=payload,
    ).sealed(src, dst)
    assert seg.checksum_ok(src, dst)


@given(
    ips, ips, ips, ips, seqs, seqs, windows, payloads,
    st.one_of(st.none(), ips),
)
def test_incremental_rewrite_equals_full_recompute(
    src, dst, new_src, new_dst, new_seq, new_ack, new_win, payload, orig_dst
):
    seg = TcpSegment(
        src_port=1, dst_port=2, seq=7, ack=9, flags=FLAG_ACK | FLAG_PSH,
        window=100, payload=payload,
    ).sealed(src, dst)
    rewritten = incremental_rewrite(
        seg,
        old_src=src,
        old_dst=dst,
        new_src=new_src,
        new_dst=new_dst,
        seq=new_seq,
        ack=new_ack,
        window=new_win,
        orig_dst=orig_dst,
    )
    full = rewritten.compute_checksum(new_src, new_dst)
    # One's-complement checksums have two encodings of zero; our pipeline
    # normalises consistently, so exact equality must hold.
    assert rewritten.checksum == full


@given(ips, ips, payloads)
def test_double_rewrite_roundtrips(src, dst, payload):
    """Rewriting dst away and back restores a valid checksum."""
    seg = TcpSegment(
        src_port=5, dst_port=6, seq=1, ack=2, flags=FLAG_ACK,
        window=10, payload=payload,
    ).sealed(src, dst)
    away = incremental_rewrite(seg, old_src=src, old_dst=dst, new_dst=IP_C,
                               orig_dst=dst)
    back = incremental_rewrite(away, old_src=src, old_dst=IP_C, new_dst=dst,
                               orig_dst=None)
    assert back.checksum_ok(src, dst)


# -- sizes and sums against a reference that serialises the header -----------------
#
# TcpSegment works the option arithmetic out inline, in three places
# (header_size, wire_size, header_sum).  The reference below packs the real
# bytes — pseudo-header, header, options, payload — and sums 16-bit words.


def reference_header(seg):
    options = b""
    if seg.mss_option is not None:
        options += struct.pack("!BBH", 2, 4, seg.mss_option)
    if seg.orig_dst_option is not None:
        options += struct.pack("!BBIH", 253, 8, seg.orig_dst_option.value, 0)
    data_offset = (20 + len(options)) // 4
    return struct.pack(
        "!HHIIHHHH", seg.src_port, seg.dst_port, seg.seq, seg.ack,
        (data_offset << 12) | seg.flags, seg.window, 0, 0,
    ) + options


def reference_sum(seg, src, dst, with_payload):
    header = reference_header(seg)
    pseudo = struct.pack("!IIBBH", src.value, dst.value, 0, 6,
                         len(header) + len(seg.payload))
    data = pseudo + header + (seg.payload if with_payload else b"")
    if len(data) % 2:
        data += b"\x00"
    return sum(struct.unpack(f"!{len(data) // 2}H", data)) % 0xFFFF


def assert_matches_reference(seg, src, dst):
    header = reference_header(seg)
    assert seg.header_size == len(header)
    assert seg.wire_size == len(header) + len(seg.payload)
    assert seg.header_sum(src, dst) == reference_sum(seg, src, dst, with_payload=False)
    expected = ~reference_sum(seg, src, dst, with_payload=True) & 0xFFFF
    assert seg.compute_checksum(src, dst) == expected
    assert seg.sealed(src, dst).checksum == expected


EDGE_SEQS = [0, 1, 0xFFFF, 0x10000, 0xFFFF0000, (1 << 32) - 2, (1 << 32) - 1]
edge_seqs = st.one_of(st.sampled_from(EDGE_SEQS), seqs)
mss_options = st.one_of(st.none(), st.sampled_from([0, 536, 1460, 0xFFFF]),
                        st.integers(0, 0xFFFF))
orig_dsts = st.one_of(st.none(), ips)


@given(ips, ips, edge_seqs, edge_seqs, windows, payloads, flag_bits, mss_options, orig_dsts)
def test_sizes_and_sums_match_serialised_reference(
    src, dst, seq, ack, win, payload, flags, mss, orig
):
    seg = TcpSegment(
        src_port=4321, dst_port=80, seq=seq, ack=ack, flags=flags, window=win,
        payload=payload, mss_option=mss, orig_dst_option=orig,
    )
    assert_matches_reference(seg, src, dst)


def test_sizes_and_sums_match_reference_on_the_option_grid():
    """Every option combination x payload parity x 2^32-edge seq/ack."""
    for mss in (None, 0, 1460, 0xFFFF):
        for orig in (None, IP_C, Ipv4Address(0xFFFFFFFF)):
            for payload in (b"", b"\x01", b"ab", b"\xff\xff\xff"):
                for seq, ack in zip(EDGE_SEQS, reversed(EDGE_SEQS)):
                    seg = make(payload=payload, seq=seq, ack=ack,
                               mss_option=mss, orig_dst_option=orig)
                    assert_matches_reference(seg, IP_A, IP_B)


@given(
    ips, ips, ips, ips, edge_seqs, edge_seqs, edge_seqs, edge_seqs, payloads,
    mss_options, orig_dsts, st.one_of(st.just("keep"), orig_dsts), flag_bits,
)
def test_incremental_rewrite_matches_serialised_reference(
    src, dst, new_src, new_dst, seq, ack, new_seq, new_ack, payload,
    mss, orig, new_orig, new_flags,
):
    seg = TcpSegment(
        src_port=1, dst_port=2, seq=seq, ack=ack, flags=FLAG_ACK | FLAG_PSH,
        window=100, payload=payload, mss_option=mss, orig_dst_option=orig,
    ).sealed(src, dst)
    options = {} if new_orig == "keep" else {"orig_dst": new_orig}
    rewritten = incremental_rewrite(
        seg, old_src=src, old_dst=dst, new_src=new_src, new_dst=new_dst,
        seq=new_seq, ack=new_ack, flags=new_flags, **options,
    )
    assert rewritten.orig_dst_option == (orig if new_orig == "keep" else new_orig)
    assert rewritten.mss_option == mss
    assert_matches_reference(rewritten, new_src, new_dst)
    assert rewritten.checksum == ~reference_sum(rewritten, new_src, new_dst, True) & 0xFFFF
