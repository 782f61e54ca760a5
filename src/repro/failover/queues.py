"""The primary bridge's output queues and payload matching (§3.2, §3.4).

The primary server output queue holds payload bytes produced by the
primary's own TCP layer (already mapped into S-space); the secondary
server output queue holds payload bytes from the secondary's diverted
segments.  Because the replicas are deterministic, both queues carry the
*same application byte stream*; only the segmentation differs ("one of the
server's TCP layer might split the reply into multiple TCP segments,
whereas the other [...] might pack the entire reply into a single
segment").  Matching therefore reduces to taking the common prefix of the
two queues — Figure 2 of the paper is exactly one `enqueue` + one
`match_prefix` here.

A divergence between the streams means the application was not
deterministic; it is detected byte-for-byte and reported as
:class:`PayloadMismatch`.

This is the bridge's hottest per-segment path, so the implementation is
zero-copy where the old one materialised bytes:

* overlap verification compares ``memoryview`` byte ranges instead of
  building a ``bytes(...)`` copy of the stored run;
* suffix extension appends ``memoryview(payload)[overlap:]`` directly to
  the backing ``bytearray`` instead of slicing a new ``bytes`` object;
* ``pop`` advances a consumed-offset cursor instead of ``del data[:n]``
  (which memmoves the whole tail); the front is compacted lazily once
  the dead prefix dominates, keeping pops O(1) amortised.

Invariant for the memoryview discipline: every view over the backing
``bytearray`` is statement-local (created, compared, and dropped inside a
single expression), so no buffer export is alive when the bytearray is
resized — resizing an exported bytearray raises ``BufferError``.  The
``data`` property hands out a fresh view per call; callers must not hold
it across a mutating call (``enqueue``/``pop``/``drain``).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.tcp.seqnum import seq_add, seq_lt, seq_sub


class PayloadMismatch(Exception):
    """The replicas produced different bytes for the same sequence range."""


class OutputQueue:
    """A contiguous run of stream bytes, keyed by S-space sequence numbers.

    ``frontier`` is the sequence number one past the last byte ever
    enqueued; it is maintained even while the queue is empty so duplicate
    (retransmitted) payload can be recognised and discarded.
    """

    MAX_PENDING_CHUNKS = 256
    # Compact the consumed front only once it is both big enough to be
    # worth a memmove and at least half the buffer, so each retained byte
    # is moved O(1) times amortised.
    COMPACT_MIN_CONSUMED = 4096

    __slots__ = (
        "name", "_m_enqueued", "_m_dups", "_m_gaps", "base_seq", "_data", "_consumed",
        "_pending", "bytes_enqueued", "duplicates_discarded", "gaps_buffered",
    )

    def __init__(
        self,
        initial_seq: int,
        name: str = "queue",
        metrics: Optional[MetricsRegistry] = None,
        host: str = "",
    ):
        self.name = name
        metrics = metrics or NULL_METRICS
        self._m_enqueued = metrics.counter("queue.bytes_enqueued", host=host, queue=name)
        self._m_dups = metrics.counter("queue.duplicates_discarded", host=host, queue=name)
        self._m_gaps = metrics.counter("queue.gaps_buffered", host=host, queue=name)
        self.base_seq = initial_seq  # seq of the first unconsumed byte
        self._data = bytearray()
        self._consumed = 0  # dead prefix of _data already popped out
        # Above-frontier chunks: a diverted segment can be lost between
        # the replicas (§4 case 4) while later segments still arrive, so
        # the queue must reassemble around the hole until the
        # retransmission fills it (built at the first hole).
        self._pending: Optional[Dict[int, bytes]] = None
        self.bytes_enqueued = 0
        self.duplicates_discarded = 0
        self.gaps_buffered = 0

    def __len__(self) -> int:
        return len(self._data) - self._consumed

    @property
    def data(self) -> memoryview:
        """The unconsumed bytes as a zero-copy view.

        Valid only until the next mutating call; use ``bytes(q.data)``
        to snapshot.
        """
        return memoryview(self._data)[self._consumed :]

    @property
    def frontier(self) -> int:
        """Sequence number of the next byte we have never stored."""
        return seq_add(self.base_seq, len(self))

    def enqueue(self, seq: int, payload: bytes) -> int:
        """Add payload at ``seq``; overlap with existing bytes is verified
        and discarded.  Returns the number of genuinely new bytes made
        contiguous (out-of-order chunks are buffered and count later).

        Raises :class:`PayloadMismatch` if an overlap disagrees.
        """
        if not payload:
            return 0
        frontier = self.frontier
        if seq_lt(frontier, seq):
            # A hole: an earlier segment was lost on the replica-to-replica
            # path.  Buffer and wait for the retransmission.
            if self._pending is None:
                self._pending = {}
            if len(self._pending) < self.MAX_PENDING_CHUNKS and seq not in self._pending:
                self._pending[seq] = payload
                self.gaps_buffered += 1
                self._m_gaps.inc()
            return 0
        overlap = seq_sub(frontier, seq)
        if overlap > 0:
            check = min(overlap, len(payload))
            stored_start = len(self) - overlap
            # Overlap entirely below base_seq (already matched and popped)
            # cannot be verified any more; only verify what we still hold.
            if stored_start >= 0:
                lo = self._consumed + stored_start
                if memoryview(self._data)[lo : lo + check] != memoryview(payload)[:check]:
                    raise PayloadMismatch(
                        f"{self.name}: replica streams diverge at seq {seq}"
                    )
            if overlap >= len(payload):
                self.duplicates_discarded += len(payload)
                self._m_dups.inc(len(payload))
                return 0
            fresh = len(payload) - overlap
            self._data += memoryview(payload)[overlap:]
        else:
            fresh = len(payload)
            self._data += payload
        self.bytes_enqueued += fresh
        self._m_enqueued.inc(fresh)
        return fresh + self._drain_pending()

    def _drain_pending(self) -> int:
        """Fold buffered above-frontier chunks that became contiguous."""
        added = 0
        while self._pending:
            match = None
            for seq in self._pending:
                overlap_or_contiguous = seq_sub(self.frontier, seq) < (1 << 31)
                if overlap_or_contiguous:
                    match = seq
                    break
            if match is None:
                return added
            payload = self._pending.pop(match)
            frontier = self.frontier
            skip = seq_sub(frontier, match)
            if skip >= len(payload):
                self.duplicates_discarded += len(payload)
                self._m_dups.inc(len(payload))
                continue
            fresh = len(payload) - skip
            self._data += memoryview(payload)[skip:]
            self.bytes_enqueued += fresh
            self._m_enqueued.inc(fresh)
            added += fresh
        return added

    def pop(self, count: int) -> bytes:
        """Remove and return ``count`` bytes from the front."""
        if count > len(self):
            raise ValueError(f"{self.name}: popping {count} of {len(self)}")
        lo = self._consumed
        out = bytes(memoryview(self._data)[lo : lo + count])
        consumed = lo + count
        self.base_seq = seq_add(self.base_seq, count)
        if consumed >= self.COMPACT_MIN_CONSUMED and consumed * 2 >= len(self._data):
            del self._data[:consumed]
            consumed = 0
        self._consumed = consumed
        return out

    def drain(self) -> Tuple[int, bytes]:
        """Remove everything; returns (first seq, bytes).  Used by the §6
        secondary-failure flush."""
        seq = self.base_seq
        out = bytes(memoryview(self._data)[self._consumed :])
        self._data.clear()
        self._consumed = 0
        self.base_seq = seq_add(seq, len(out))
        return seq, out


def match_prefix(p_queue: OutputQueue, s_queue: OutputQueue) -> Optional[Tuple[int, bytes]]:
    """Common prefix both replicas have produced, or None.

    Raises :class:`PayloadMismatch` when the prefixes disagree.  Both
    queues advance past the matched bytes.
    """
    count = min(len(p_queue), len(s_queue))
    if count == 0:
        return None
    if p_queue.base_seq != s_queue.base_seq:
        # Queue fronts can only differ if bridge bookkeeping broke.
        raise PayloadMismatch(
            f"queue fronts diverge: {p_queue.base_seq} vs {s_queue.base_seq}"
        )
    # memoryview == memoryview compares contents without materialising
    # either side; both views are statement-local (see module docstring).
    if p_queue.data[:count] != s_queue.data[:count]:
        raise PayloadMismatch(
            f"replica payloads diverge at seq {p_queue.base_seq}"
        )
    seq = p_queue.base_seq
    matched = p_queue.pop(count)
    s_queue.pop(count)
    return seq, matched
