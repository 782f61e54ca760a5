"""A simulator-free model test of the bridge core (§3.2–§3.4, §4, §6, §7, §8).

The core is driven directly — no event loop, no host, no IP layer — by a
hypothesis state machine whose sink appends to two lists, against a naive
reference: the application stream both replicas produce, which bytes of it
each replica has handed the bridge, and a cursor of what reached the peer.

Interleaved: P and S segments with arbitrary segmentation, held back and
delivered out of order, re-sent with a different segmentation (duplicates,
and retransmissions below the high-water mark), pure and repeated ACKs,
the FINs in either order, the peer's ACKs and FIN, secondary failure
(→ direct mode) and the resume re-seed.  The initial sequence numbers sit
so that both the replicas' stream and the peer's cross 2^32.

After every step:

* fresh payload reaches the peer in order, once, and is exactly the common
  prefix of what both replicas produced; anything re-sent below the
  high-water mark is byte-equal to what was sent there before;
* in merge mode every emission carries ACK = min(ack_P, ack_S) and
  window = min(win_P, win_S) of the values the bridge last saw;
* in direct mode every segment of P passes with Δseq applied and nothing
  else changed.
"""

import hashlib
from dataclasses import replace

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.failover.core import BridgeCore, ConnectionResume
from repro.net.addresses import Ipv4Address
from repro.tcp.segment import FLAG_ACK, FLAG_FIN, FLAG_PSH, FLAG_SYN, TcpSegment
from repro.tcp.seqnum import SEQ_MOD, seq_add, seq_le, seq_lt, seq_min, seq_sub

PEER = Ipv4Address("10.0.0.1")
SERVICE = Ipv4Address("10.0.0.2")
PEER_PORT, PORT = 40_000, 80
STREAM = b"".join(
    hashlib.sha256(i.to_bytes(4, "big")).digest() for i in range(1000)
)
MAX_HELD = 6


class ListSink:
    """The second implementation of the core's sink: two lists."""

    def __init__(self):
        self.emitted = []
        self.events = []

    def _emit(self, bc, segment):
        # Called while ``bc`` is still what the segment was built from:
        # merged data never starts beyond the high-water mark.
        if segment.payload and not bc.direct:
            assert seq_le(segment.seq, bc.sent_hwm), (segment, bc.sent_hwm)
        self.emitted.append(segment)

    def _event(self, name, bc=None, **fields):
        self.events.append((name, fields))


class Replica:
    """What one replica's TCP has produced, and what of it reached the bridge."""

    def __init__(self, isn, ack, window, total):
        self.isn = isn
        self.ack = ack  # peer-space: next peer byte this replica expects
        self.window = window
        self.sent = 0  # stream offset of the next byte never sent
        self.have = bytearray(total)  # 1 where the bridge was handed the byte
        self.held = []  # sent, still on their way to the bridge
        self.fin_sent = False
        self.fin_seen = False  # the bridge was handed the FIN

    def front(self):
        """Length of the contiguous prefix the bridge was handed."""
        hole = self.have.find(0)
        return len(self.have) if hole < 0 else hole

    def segment(self, offset, length, fin=False):
        flags = FLAG_ACK | (FLAG_PSH if length else 0) | (FLAG_FIN if fin else 0)
        return TcpSegment(
            PORT, PEER_PORT, seq_add(self.isn, 1 + offset), self.ack, flags,
            self.window, STREAM[offset : offset + length],
        )


class BridgeCoreMachine(RuleBasedStateMachine):
    steps = 0  # across the whole run, for the steps/s figure

    # ------------------------------------------------------------------
    # establishment (§7.1): both SYN-ACKs, either order, one merged SYN-ACK
    # ------------------------------------------------------------------

    @initialize(
        # Short streams reach the FINs; long ones the steady state.
        total=st.one_of(st.integers(1, 3000), st.integers(1, len(STREAM))),
        isn_p=st.integers(0, SEQ_MOD - 1),
        wrap=st.integers(1, len(STREAM)),
        isn_c=st.integers(SEQ_MOD - 2000, SEQ_MOD - 1),
        mss=st.tuples(st.sampled_from([536, 1460]), st.sampled_from([536, 1460])),
        windows=st.tuples(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF)),
        s_first=st.booleans(),
    )
    def establish(self, total, isn_p, wrap, isn_c, mss, windows, s_first):
        self.total = total
        # S-space crosses 2^32 inside the stream, the peer's numbering
        # within its first two thousand bytes.
        isn_s = SEQ_MOD - min(wrap, total)
        self.isn_c = isn_c
        expects = seq_add(isn_c, 1)
        self.p = Replica(isn_p, expects, windows[0], total)
        self.s = Replica(isn_s, expects, windows[1], total)
        self.base = seq_add(isn_s, 1)  # S-space seq of stream offset 0
        self.delta = seq_sub(isn_p, isn_s)
        self.cursor = 0  # stream bytes that reached the peer, in order
        self.closed = False
        self.sink = ListSink()
        self.core = BridgeCore(self.sink)
        self.bc = self.core.create((PEER, PEER_PORT, PORT), SERVICE, "server", False)
        # The ACK and window the bridge last saw from each replica.
        self.seen = {"P": (expects, windows[0]), "S": (expects, windows[1])}
        syn_p = TcpSegment(PORT, PEER_PORT, isn_p, expects, FLAG_SYN | FLAG_ACK,
                           windows[0], mss_option=mss[0])
        syn_s = replace(syn_p, seq=isn_s, window=windows[1], mss_option=mss[1])
        steps = [(self.core.from_primary, syn_p), (self.core.from_secondary, syn_s)]
        (first, syn), (second, other_syn) = reversed(steps) if s_first else steps
        first(self.bc, syn)
        assert self.sink.emitted == []  # one SYN is not a connection yet
        second(self.bc, other_syn)
        (merged,) = self.sink.emitted
        assert merged == TcpSegment(
            PORT, PEER_PORT, isn_s, expects, FLAG_SYN | FLAG_ACK, min(windows),
            mss_option=min(mss),
        )
        assert self.bc.delta.delta == self.delta
        self.checked = 1  # emissions already judged

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def replica(self, source):
        return self.p if source == "P" else self.s

    def merging(self):
        return not self.closed and not self.bc.direct

    def deliver(self, source, segment):
        """Hand the bridge one replica segment and judge what it emits."""
        BridgeCoreMachine.steps += 1
        replica = self.replica(source)
        offset = seq_sub(segment.seq, seq_add(replica.isn, 1))
        replica.have[offset : offset + len(segment.payload)] = b"\x01" * len(segment.payload)
        replica.fin_seen |= segment.fin
        if source == "S" and self.bc.direct:
            self.core.from_secondary(self.bc, segment)
            assert len(self.sink.emitted) == self.checked  # S is gone: ignored
            return
        self.seen[source] = (segment.ack, segment.window)
        if source == "P":
            self.core.from_primary(self.bc, segment)
        else:
            self.core.from_secondary(self.bc, segment)
        if segment.payload and offset < self.cursor and not self.bc.direct:
            # §4: what the peer already has is forwarded at once, as sent.
            again = self.sink.emitted[self.checked]
            assert again.seq == seq_add(self.base, offset)
            assert again.payload == segment.payload[: self.cursor - offset]
        if self.bc.direct:
            # §6: only the Δseq subtraction remains, forever.
            (passed,) = self.sink.emitted[self.checked :]
            assert passed == replace(segment, seq=seq_sub(segment.seq, self.delta))
            self.checked += 1
            self.cursor = max(self.cursor, offset + len(segment.payload))
        else:
            self.judge_merged()
        self.closed = self.bc.key not in self.core.connections

    def judge_merged(self):
        """Every new emission in merge mode, against the reference."""
        ack = seq_min(self.seen["P"][0], self.seen["S"][0])
        window = min(self.seen["P"][1], self.seen["S"][1])
        for segment in self.sink.emitted[self.checked :]:
            assert segment.has_ack and segment.ack == ack, (segment, self.seen)
            assert segment.window == window, (segment, self.seen)
            offset = seq_sub(segment.seq, self.base)
            size = len(segment.payload)
            assert segment.payload == STREAM[offset : offset + size]
            if size and offset == self.cursor:
                self.cursor += size  # fresh: in order, once
            elif size:  # re-sent: wholly below the high-water mark
                assert offset + size <= self.cursor, (offset, size, self.cursor)
            if segment.fin:
                assert self.p.fin_seen and self.s.fin_seen
                assert offset == self.cursor == self.total
        self.checked = len(self.sink.emitted)
        # Exactly the common prefix: nothing both replicas produced waits.
        assert self.cursor == min(self.p.front(), self.s.front())
        # ... and the merged ACK has been announced (§3.4 empty ACK).
        assert not seq_lt(self.bc.merge.last_sent_ack, ack)

    # ------------------------------------------------------------------
    # replica output: fresh data, reordering, re-sends, ACKs, FINs
    # ------------------------------------------------------------------

    @precondition(lambda self: not self.closed)
    @rule(source=st.sampled_from("PS"), size=st.integers(1, 4000),
          hold=st.booleans(), fin=st.booleans())
    def send(self, source, size, hold, fin):
        """The next bytes of the stream, arbitrarily segmented; maybe held
        back so that later ones overtake them; maybe carrying the FIN."""
        replica = self.replica(source)
        size = min(size, self.total - replica.sent)
        fin = fin and replica.sent + size == self.total and not replica.fin_sent
        if not size and not fin:
            return
        segment = replica.segment(replica.sent, size, fin)
        replica.sent += size
        replica.fin_sent |= fin
        if hold and len(replica.held) < MAX_HELD:
            replica.held.append(segment)
        else:
            self.deliver(source, segment)

    @precondition(lambda self: not self.closed)
    @rule(source=st.sampled_from("PS"), index=st.integers(0, MAX_HELD - 1))
    def overtake(self, source, index):
        """A held-back segment arrives (reordering; its ACK is stale)."""
        held = self.replica(source).held
        if held:
            self.deliver(source, held.pop(index % len(held)))

    @precondition(lambda self: not self.closed)
    @rule(source=st.sampled_from("PS"), start=st.floats(0, 1),
          size=st.integers(0, 3000), fin=st.booleans())
    def resend(self, source, start, size, fin):
        """A duplicate or retransmission with a segmentation of its own,
        starting anywhere in what the bridge already holds contiguously;
        the FIN again, if the bridge has had it."""
        replica = self.replica(source)
        offset = int(start * replica.front())
        size = min(size, replica.sent - offset)
        fin = fin and replica.fin_seen and offset + size == self.total
        if size > 0 or fin:
            self.deliver(source, replica.segment(offset, size, fin))

    @precondition(lambda self: not self.closed)
    @rule(source=st.sampled_from("PS"), more=st.integers(0, 3000),
          window=st.integers(0, 0xFFFF))
    def acknowledge(self, source, more, window):
        """A pure ACK: ``more`` peer bytes further (0 repeats the level)."""
        replica = self.replica(source)
        replica.ack = seq_add(replica.ack, more)
        replica.window = window
        self.deliver(source, replica.segment(replica.sent, 0))

    @precondition(lambda self: self.merging())
    @rule()
    def both_repeat_their_ack(self):
        """Both replicas repeat a pure ACK: the peer is resending and must
        hear the duplicate, though the merged ACK did not move."""
        def both_acknowledge():
            for source in "PS":
                if self.merging():
                    replica = self.replica(source)
                    self.deliver(source, replica.segment(replica.sent, 0))

        both_acknowledge()  # whatever was new is announced ...
        mark = len(self.sink.events)
        both_acknowledge()  # ... so these are repeats
        assert self.closed or any(
            name == "empty_ack" and fields["dup"]
            for name, fields in self.sink.events[mark:]
        )

    # ------------------------------------------------------------------
    # the peer: its ACKs come back in P's numbering (Δseq added)
    # ------------------------------------------------------------------

    @precondition(lambda self: not self.closed)
    @rule(fin=st.booleans())
    def peer_acknowledges(self, fin):
        BridgeCoreMachine.steps += 1
        fin_out = any(segment.fin for segment in self.sink.emitted)
        ack = seq_add(self.base, self.cursor + fin_out)
        segment = TcpSegment(
            PEER_PORT, PORT, seq_add(self.isn_c, 1), ack,
            FLAG_ACK | (FLAG_FIN if fin else 0), 65535,
        ).sealed(PEER, SERVICE)
        seen = self.core.from_peer(self.bc, segment, PEER, SERVICE)
        assert seen == replace(segment, ack=seq_add(ack, self.delta), checksum=seen.checksum)
        assert seen.checksum_ok(PEER, SERVICE)
        self.closed = self.bc.key not in self.core.connections
        if fin and fin_out and not self.bc.direct:
            # §8: once both replicas acknowledge the peer's FIN, state goes.
            # (Not in direct mode: deletion waits on min(ack_P, ack_S), and
            # the dead secondary's ACK no longer moves.)
            for source in "PS":
                if not self.closed:
                    replica = self.replica(source)
                    replica.ack, replica.window = segment.seq_end, 0
                    self.deliver(source, replica.segment(replica.sent, 0))
            assert self.closed
            assert self.sink.events[-1] == (
                "conn_deleted", {"peer": self.bc.peer, "reason": "closed"}
            )

    # ------------------------------------------------------------------
    # secondary failure (§6) and the resume re-seed
    # ------------------------------------------------------------------

    @precondition(lambda self: self.merging())
    @rule()
    def secondary_fails(self):
        BridgeCoreMachine.steps += 1
        front = self.p.front()
        ack, window = self.seen["P"]
        self.core.enter_direct(self.bc)
        flushed = self.sink.emitted[self.checked :]
        # Flush: everything P produced that S never matched, with P's own
        # ACK and window; then P's true ACK if the peer has not heard it.
        for segment in flushed:
            if not segment.fin:  # the FIN still goes out merged
                assert (segment.ack, segment.window) == (ack, window)
            offset = seq_sub(segment.seq, self.base)
            assert segment.payload == STREAM[offset : offset + len(segment.payload)]
            if segment.payload:
                assert offset == self.cursor
                self.cursor += len(segment.payload)
        assert self.cursor == front
        assert self.bc.direct and not seq_lt(self.bc.merge.last_sent_ack, ack)
        self.checked = len(self.sink.emitted)
        self.s.held.clear()

    @precondition(lambda self: not self.closed and self.bc.direct
                  and not self.p.fin_sent)
    @rule()
    def secondary_rejoins(self):
        """Reintegration: both queues restart at P's ``snd_max``; what P has
        in flight below it is by construction a retransmission."""
        BridgeCoreMachine.steps += 1
        p = self.p
        self.core.resume(ConnectionResume(
            PEER, PEER_PORT, SERVICE, PORT, self.bc.delta,
            frontier=seq_add(self.base, p.sent), ack=p.ack, window=p.window,
            mss=self.bc.mss,
        ), direct=False)
        assert len(self.sink.emitted) == self.checked  # no spurious empty ACK
        assert not self.bc.direct and self.bc.delta.delta == self.delta
        p.have[: p.sent] = b"\x01" * p.sent
        self.s = Replica(seq_sub(self.base, 1), p.ack, p.window, self.total)
        self.s.sent = p.sent
        self.s.have[: p.sent] = b"\x01" * p.sent
        self.seen = {"P": (p.ack, p.window), "S": (p.ack, p.window)}
        self.cursor = p.sent

    # ------------------------------------------------------------------

    @precondition(lambda self: self.closed)
    @rule()
    def stays_closed(self):
        """§8: the state is gone; nothing is left to drive."""
        assert self.bc.key not in self.core.connections

    @invariant()
    def no_divergence_was_invented(self):
        assert not self.bc.broken
        assert all(name != "mismatch" for name, _ in self.sink.events)


BridgeCoreMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None, derandomize=True,
)
TestBridgeCore = BridgeCoreMachine.TestCase
