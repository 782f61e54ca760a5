"""Unit and property tests for send/receive buffers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.tcp.buffers import ReceiveBuffer, SendBuffer
from repro.tcp.seqnum import SEQ_MOD, seq_add


# ----------------------------------------------------------------------
# SendBuffer
# ----------------------------------------------------------------------

def test_send_buffer_accepts_up_to_capacity():
    buf = SendBuffer(10)
    assert buf.write(b"x" * 6) == 6
    assert buf.write(b"y" * 6) == 4
    assert buf.free_space == 0
    assert buf.write(b"z") == 0


@pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
def test_send_buffer_write_copies_whatever_buffer_type_it_is_given(kind):
    source = bytearray(b"abcdefghij")
    data = memoryview(source) if kind is memoryview else kind(source)
    buf = SendBuffer(6)
    assert buf.write(data) == 6
    # The caller may reuse its buffer at once: nothing buffered aliases it.
    source[:] = b"X" * len(source)
    if kind is bytearray:
        data[:] = b"X" * len(data)
    assert buf.peek_unsent(10) == b"abcdef"


def test_send_buffer_mark_sent_and_ack():
    buf = SendBuffer(100)
    buf.write(b"abcdefgh")
    assert buf.peek_unsent(4) == b"abcd"
    buf.mark_sent(4)
    assert buf.in_flight == 4
    assert buf.unsent_bytes == 4
    buf.ack_bytes(2)
    assert buf.in_flight == 2
    assert len(buf) == 6
    assert buf.peek_unsent(10) == b"efgh"


def test_send_buffer_rewind_for_retransmit():
    buf = SendBuffer(100)
    buf.write(b"abcdef")
    buf.mark_sent(6)
    assert buf.unsent_bytes == 0
    buf.rewind()
    assert buf.unsent_bytes == 6
    assert buf.peek_unsent(3) == b"abc"


def test_send_buffer_peek_at_offset():
    buf = SendBuffer(100)
    buf.write(b"abcdef")
    assert buf.peek_at(2, 3) == b"cde"


def test_send_buffer_over_ack_rejected():
    buf = SendBuffer(10)
    buf.write(b"ab")
    with pytest.raises(ValueError):
        buf.ack_bytes(3)
    with pytest.raises(ValueError):
        buf.mark_sent(3)


def test_send_buffer_zero_capacity_rejected():
    with pytest.raises(ValueError):
        SendBuffer(0)


@given(st.lists(st.binary(min_size=1, max_size=50), max_size=20))
def test_send_buffer_fifo_property(chunks):
    """Bytes come out in exactly the order they were accepted."""
    buf = SendBuffer(10_000)
    accepted = bytearray()
    for chunk in chunks:
        n = buf.write(chunk)
        accepted.extend(chunk[:n])
    out = bytearray()
    while buf.unsent_bytes:
        piece = buf.peek_unsent(7)
        buf.mark_sent(len(piece))
        out.extend(piece)
    assert bytes(out) == bytes(accepted)


# ----------------------------------------------------------------------
# ReceiveBuffer
# ----------------------------------------------------------------------

def test_receive_in_order():
    buf = ReceiveBuffer(rcv_nxt=100, capacity=1000)
    assert buf.receive(100, b"abc") == 3
    assert buf.rcv_nxt == 103
    assert buf.read(10) == b"abc"


def test_receive_duplicate_ignored():
    buf = ReceiveBuffer(rcv_nxt=100)
    buf.receive(100, b"abc")
    assert buf.receive(100, b"abc") == 0
    assert buf.duplicate_segments == 1
    assert buf.read(10) == b"abc"


def test_receive_partial_overlap_trimmed():
    buf = ReceiveBuffer(rcv_nxt=100)
    buf.receive(100, b"abc")
    assert buf.receive(101, b"bcde") == 2  # only 'de' is new
    assert buf.read(10) == b"abcde"


def test_receive_out_of_order_reassembles():
    buf = ReceiveBuffer(rcv_nxt=0)
    assert buf.receive(3, b"def") == 0
    assert buf.read(10) == b""
    assert buf.receive(0, b"abc") == 6
    assert buf.read(10) == b"abcdef"


def test_receive_multiple_gaps():
    buf = ReceiveBuffer(rcv_nxt=0)
    buf.receive(6, b"gh")
    buf.receive(3, b"def")
    assert buf.receive(0, b"abc") == 8
    assert buf.read(20) == b"abcdefgh"


def test_window_shrinks_with_unread_data():
    buf = ReceiveBuffer(rcv_nxt=0, capacity=10)
    buf.receive(0, b"abcdef")
    assert buf.window == 4
    buf.read(6)
    assert buf.window == 10


def test_beyond_window_trimmed():
    buf = ReceiveBuffer(rcv_nxt=0, capacity=5)
    assert buf.receive(0, b"abcdefgh") == 5
    assert buf.read(10) == b"abcde"


def test_fully_beyond_window_dropped():
    buf = ReceiveBuffer(rcv_nxt=0, capacity=5)
    assert buf.receive(10, b"zz") == 0


def test_fin_advances_rcv_nxt():
    buf = ReceiveBuffer(rcv_nxt=50)
    buf.receive(50, b"ab")
    buf.advance_past_fin()
    assert buf.rcv_nxt == 53


def test_receive_across_wraparound():
    start = SEQ_MOD - 2
    buf = ReceiveBuffer(rcv_nxt=start)
    assert buf.receive(start, b"abcd") == 4
    assert buf.rcv_nxt == seq_add(start, 4) == 2
    assert buf.read(10) == b"abcd"


def test_ooo_buffer_bounded():
    buf = ReceiveBuffer(rcv_nxt=0, capacity=65536, max_ooo_segments=2)
    buf.receive(10, b"a")
    buf.receive(20, b"b")
    buf.receive(30, b"c")  # beyond the OOO bound: dropped
    assert len(buf._out_of_order) == 2


@given(st.data())
def test_reassembly_property_random_arrival_order(data):
    """Any arrival permutation of a segmented stream reassembles exactly."""
    stream = data.draw(st.binary(min_size=1, max_size=300))
    # Cut the stream into segments.
    cuts = sorted(
        data.draw(
            st.lists(
                st.integers(min_value=1, max_value=max(1, len(stream) - 1)),
                max_size=8,
            )
        )
    )
    bounds = [0] + [c for c in cuts if c < len(stream)] + [len(stream)]
    segments = [
        (bounds[i], stream[bounds[i] : bounds[i + 1]])
        for i in range(len(bounds) - 1)
        if bounds[i] < bounds[i + 1]
    ]
    order = data.draw(st.permutations(segments))
    buf = ReceiveBuffer(rcv_nxt=0, capacity=100_000, max_ooo_segments=64)
    for seq, payload in order:
        buf.receive(seq, payload)
    # Retransmit everything in order to fill any holes dropped by the
    # bounded out-of-order buffer (as real TCP would).
    for seq, payload in segments:
        buf.receive(seq, payload)
    assert buf.read(100_000) == stream
