"""Send and receive buffers.

The send buffer defaults to 64 KB as in the paper's FreeBSD 4.4 testbed;
its blocking behaviour is what flattens the small-message end of Figure 3
("the send call returns when the application has passed the last byte to
the stack, not when the last byte has been put on the wire").

The receive buffer performs out-of-order reassembly and computes the
advertised window, which matters for the bridge's min-window merge.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.tcp.seqnum import seq_add, seq_ge, seq_in_window, seq_lt, seq_sub


class SendBuffer:
    """Bytes accepted from the application but not yet acknowledged.

    Layout (offsets relative to ``una_seq``, the lowest unacknowledged
    sequence number)::

        [0 .. next_offset)   sent, in flight
        [next_offset .. end) accepted, not yet sent
    """

    __slots__ = ("capacity", "_data", "next_offset")

    def __init__(self, capacity: int = 65536):
        if capacity <= 0:
            raise ValueError("send buffer capacity must be positive")
        self.capacity = capacity
        self._data = bytearray()
        self.next_offset = 0

    def __len__(self) -> int:
        return len(self._data)

    @property
    def free_space(self) -> int:
        return self.capacity - len(self._data)

    @property
    def unsent_bytes(self) -> int:
        return len(self._data) - self.next_offset

    @property
    def in_flight(self) -> int:
        return self.next_offset

    def write(self, data: Union[bytes, bytearray, memoryview]) -> int:
        """Append as much of ``data`` as fits; returns the accepted count.

        The accepted prefix is copied, so the buffer never aliases the
        caller's: handing in a ``memoryview`` costs one copy of exactly the
        bytes taken.
        """
        accepted = min(len(data), self.free_space)
        if accepted:
            self._data.extend(data[:accepted])
        return accepted

    def peek_unsent(self, limit: int) -> bytes:
        """Up to ``limit`` bytes of never-sent data (for new transmission)."""
        end = min(len(self._data), self.next_offset + limit)
        return bytes(self._data[self.next_offset : end])

    def peek_at(self, offset: int, limit: int) -> bytes:
        """Up to ``limit`` buffered bytes starting at ``offset`` (retransmit)."""
        end = min(len(self._data), offset + limit)
        return bytes(self._data[offset:end])

    def mark_sent(self, count: int) -> None:
        if count > self.unsent_bytes:
            raise ValueError("marking more bytes sent than are buffered")
        self.next_offset += count

    def ack_bytes(self, count: int) -> None:
        """Drop ``count`` acknowledged bytes from the front."""
        if count > len(self._data):
            raise ValueError("acknowledging more bytes than are buffered")
        del self._data[:count]
        self.next_offset = max(0, self.next_offset - count)

    def rewind(self) -> None:
        """Retransmission: everything in flight becomes unsent again."""
        self.next_offset = 0

    def restore(self, data: bytes, next_offset: int) -> None:
        """Reload buffer contents from a connection snapshot (reintegration)."""
        if len(data) > self.capacity:
            raise ValueError("snapshot larger than the buffer capacity")
        if not 0 <= next_offset <= len(data):
            raise ValueError("snapshot next_offset outside the buffered range")
        self._data = bytearray(data)
        self.next_offset = next_offset


class ReceiveBuffer:
    """Reassembly queue plus the in-order bytes awaiting the application."""

    __slots__ = (
        "capacity", "rcv_nxt", "_readable", "_out_of_order", "max_ooo_segments",
        "duplicate_segments", "total_received", "bytes_trimmed",
    )

    def __init__(self, rcv_nxt: int, capacity: int = 65536, max_ooo_segments: int = 64):
        self.capacity = capacity
        self.rcv_nxt = rcv_nxt
        self._readable = bytearray()
        self._out_of_order: Optional[Dict[int, bytes]] = None  # built at the first gap
        self.max_ooo_segments = max_ooo_segments
        self.duplicate_segments = 0
        self.total_received = 0
        self.bytes_trimmed = 0  # data beyond the advertised window

    @property
    def readable_bytes(self) -> int:
        return len(self._readable)

    @property
    def window(self) -> int:
        """Advertised receive window (bounded to the 16-bit field)."""
        return max(0, min(0xFFFF, self.capacity - len(self._readable)))

    def receive(self, seq: int, data: bytes) -> int:
        """Accept segment payload; returns how many bytes became in-order.

        Handles duplicates, overlaps and out-of-order arrival.  Data beyond
        the advertised window is trimmed (the sender violated the window or
        probed a zero window).
        """
        if not data:
            return 0
        window = self.window
        # Trim the portion already delivered.
        if seq_lt(seq, self.rcv_nxt):
            skip = seq_sub(self.rcv_nxt, seq)
            if skip >= len(data):
                self.duplicate_segments += 1
                return 0
            data = data[skip:]
            seq = self.rcv_nxt
        # Trim anything beyond the window.
        offset = seq_sub(seq, self.rcv_nxt)
        if offset >= window:
            self.duplicate_segments += 1
            if not seq_in_window(self.rcv_nxt, seq, 1 << 30):
                pass  # ancient duplicate, not a window overrun
            else:
                self.bytes_trimmed += len(data)
            return 0
        if offset + len(data) > window:
            self.bytes_trimmed += offset + len(data) - window
            data = data[: window - offset]
        if offset == 0:
            return self._append_in_order(data)
        # Out of order: store (first writer wins; dupes are common on loss).
        if self._out_of_order is None:
            self._out_of_order = {}
        if len(self._out_of_order) < self.max_ooo_segments and seq not in self._out_of_order:
            self._out_of_order[seq] = data
        return 0

    def _append_in_order(self, data: bytes) -> int:
        self._readable.extend(data)
        self.rcv_nxt = seq_add(self.rcv_nxt, len(data))
        self.total_received += len(data)
        advanced = len(data)
        advanced += self._drain_out_of_order()
        return advanced

    def _drain_out_of_order(self) -> int:
        advanced = 0
        if not self._out_of_order:
            return advanced
        while True:
            match: Optional[int] = None
            for seq in self._out_of_order:
                if seq_in_window(seq, self.rcv_nxt, len(self._out_of_order[seq]) + 1):
                    match = seq
                    break
            if match is None:
                return advanced
            data = self._out_of_order.pop(match)
            skip = seq_sub(self.rcv_nxt, match)
            if skip < len(data):
                fresh = data[skip:]
                self._readable.extend(fresh)
                self.rcv_nxt = seq_add(self.rcv_nxt, len(fresh))
                self.total_received += len(fresh)
                advanced += len(fresh)

    def advance_past_fin(self) -> None:
        """Consume the FIN's virtual sequence slot."""
        self.rcv_nxt = seq_add(self.rcv_nxt, 1)

    def read(self, max_bytes: int) -> bytes:
        take = min(max_bytes, len(self._readable))
        data = bytes(self._readable[:take])
        del self._readable[:take]
        return data

    def snapshot_readable(self) -> bytes:
        """In-order bytes delivered but not yet consumed by the application."""
        return bytes(self._readable)

    def restore_readable(self, data: bytes, consumed: int) -> None:
        """Reload the readable queue from a connection snapshot.

        The buffer must have been constructed with the snapshot's
        ``rcv_nxt`` — the restored bytes sit *behind* it, already counted
        by the sequence space, so only the delivery bookkeeping moves:
        ``consumed`` bytes were read before them, on the exporter (and on
        whatever block it was installed from).
        """
        if self._readable or self._out_of_order:
            raise ValueError("restore_readable requires a fresh buffer")
        self._readable.extend(data)
        self.total_received = consumed + len(data)
