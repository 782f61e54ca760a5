"""A simulator-free model test of the TCP core (RFC 793, RFC 5961).

Two :class:`~repro.tcp.core.TcpCore` blocks are joined by an in-memory
pipe: no event loop, no host, no IP layer.  The sink is the second
implementation of the core's three calls — ``_emit`` appends to the pipe,
``_deadline`` keeps a table of absolute times against a virtual clock,
``_event`` appends to a list — and the few things the owning layer does
for a block (create the passive end on a SYN, answer for a 4-tuple in
TIME_WAIT, reset for one that is gone) are played by :class:`Pipe`.

A hypothesis state machine writes, reads, half-closes and aborts on either
side, and delivers, drops, duplicates, reorders or delays any segment in
flight — the paper's §4 loss cases are exactly these — and lets an off-path
attacker forge in-window RSTs and SYNs (PAPERS.md, "Off-Path TCP
Exploits").  The initial sequence numbers sit so that both streams cross
2^32.  After every step:

* each side has read an in-order, exactly-once prefix of what the other
  wrote, and what it has buffered continues that prefix;
* a block that has reached CLOSED runs no timer;
* a forged RST that is not an exact match, or a forged SYN, never resets,
  and a forged ACK outside the receive window acknowledges nothing;
* every state change of either block is an edge of the static machine in
  ``repro.analysis.specs.tcp_state`` — the spec ``repro lint --semantic``
  extracts from the source, checked here against the running code.

When an example ends, faults stop and the deadlines are run out: unless
somebody aborted, both sides read everything the other wrote and both
blocks close without a reset.
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

from repro.analysis.specs.tcp_state import SPEC
from repro.net.addresses import Ipv4Address
from repro.tcp.core import TRANSFERABLE_STATES, TcpCore, TcpState
from repro.tcp.segment import FLAG_ACK, FLAG_RST, FLAG_SYN, TcpSegment
from repro.tcp.seqnum import SEQ_MOD, seq_add

IPS = {"client": Ipv4Address("10.0.0.1"), "server": Ipv4Address("10.0.0.2")}
PORTS = {"client": 40_000, "server": 80}
OTHER = {"client": "server", "server": "client"}
STREAMS = {
    side: b"".join(
        hashlib.sha256(side.encode() + i.to_bytes(4, "big")).digest() for i in range(600)
    )
    for side in IPS
}
EDGES = SPEC.declared_edges()
MAX_IN_FLIGHT = 10
LATENCY = 0.001  # per delivery once faults stop: timers run while segments fly
SIDES = st.sampled_from(sorted(IPS))


class End(TcpCore):
    """A core whose sink is a pipe, a deadline table and a list."""

    def __init__(self, side, pipe, **options):
        self.side, self.pipe = side, pipe
        self.deadlines = {}  # kind -> absolute virtual time
        self.events = []
        self.gone = False  # left the connection table (TIME_WAIT or closed)
        peer = OTHER[side]
        super().__init__(IPS[side], PORTS[side], IPS[peer], PORTS[peer], **options)

    # Every assignment to ``state`` is observed, not just the net effect of
    # one call: an arrival can take two edges (SYN_RCVD → ESTABLISHED →
    # CLOSE_WAIT when the handshake ACK carries a FIN).
    @property
    def state(self):
        return self._state

    @state.setter
    def state(self, new):
        old = self.__dict__.get("_state")
        if old is not None and old is not new:
            assert (old.value, new.value) in EDGES, f"{self.side}: {old} -> {new}"
        self._state = new

    def _emit(self, segment):
        self.pipe.carry(self.side, segment)

    def _deadline(self, kind, delay):
        if delay is None:
            del self.deadlines[kind]
        else:
            self.deadlines[kind] = self.pipe.now + delay

    def _event(self, name, **fields):
        self.events.append(name)
        if name in ("time_wait", "closed"):
            self.gone = True


class Pipe:
    """The wire between the two ends, the clock, and the layer's part."""

    def __init__(self, options):
        self.now = 0.0
        self.options = options
        self.ends = {}
        self.in_flight = []  # (destination side, sealed segment)
        self.lossy = True
        self.steps = 0

    def carry(self, sender, segment):
        self.in_flight.append(
            (OTHER[sender], segment.sealed(IPS[sender], IPS[OTHER[sender]]))
        )
        if self.lossy:
            del self.in_flight[:-MAX_IN_FLIGHT]  # a full pipe loses its oldest

    def deliver(self, side, segment):
        self.steps += 1
        end, peer = self.ends.get(side), OTHER[side]
        if end is None:  # the listener: a SYN creates the passive end
            if side == "server" and segment.syn and not segment.has_ack:
                end = self.ends[side] = End(side, self, **self.options)
                end.passive_open(self.now, SEQ_MOD - 700, segment)
        elif not end.gone:
            end.arrive(self.now, segment, IPS[peer])
        elif segment.rst:
            pass
        elif end.reset_received:  # no TCB and no linger record: RFC 793 reset
            answer = (segment.ack, 0, FLAG_RST) if segment.has_ack else (
                0, segment.seq_end, FLAG_RST | FLAG_ACK)
            self.carry(side, TcpSegment(PORTS[side], PORTS[peer], *answer, 0))
        elif segment.fin or segment.payload:  # TIME_WAIT: re-ACK stragglers
            self.carry(side, TcpSegment(
                PORTS[side], PORTS[peer], end.snd_max, end.rcv_nxt, FLAG_ACK, 0xFFFF))

    def due(self):
        """The earliest deadline as ``(time, side, kind)``, or None."""
        return min(
            ((at, side, kind) for side, end in self.ends.items()
             for kind, at in end.deadlines.items()),
            default=None,
        )

    def expire_next(self):
        """Move the clock to the earliest deadline and run it out."""
        due = self.due()
        if due is None:
            return False
        self.steps += 1
        at, side, kind = due
        self.now = max(self.now, at)
        del self.ends[side].deadlines[kind]
        self.ends[side].expire(self.now, kind)
        return True


class TcpCoreMachine(RuleBasedStateMachine):
    steps = 0  # across the whole run, for the steps/s figure

    @initialize(
        mss=st.sampled_from([536, 1460]),
        send_buffer=st.sampled_from([2048, 8192]),
        recv_buffer=st.sampled_from([1024, 4096, 65536]),
        handshake=st.booleans(),
    )
    def connect(self, mss, send_buffer, recv_buffer, handshake):
        self.pipe = Pipe(dict(
            mss=mss, send_buffer_size=send_buffer, recv_buffer_size=recv_buffer,
            min_rto=0.05,
        ))
        client = self.pipe.ends["client"] = End("client", self.pipe, **self.pipe.options)
        client.active_open(0.0, SEQ_MOD - 300)
        self.written = {"client": 0, "server": 0}
        self.read = {"client": 0, "server": 0}  # bytes of the *other's* stream
        self.aborted = False
        while handshake and self.pipe.in_flight:  # else the faults get it too
            self.pipe.deliver(*self.pipe.in_flight.pop(0))

    def end(self, side):
        return self.pipe.ends.get(side)

    def can_write(self, side):
        end = self.end(side)
        return (end is not None and not end.gone and not end._fin_pending
                and not end.reset_received
                and end.state is not TcpState.CLOSED)

    # ------------------------------------------------------------------
    # the applications
    # ------------------------------------------------------------------

    @rule(side=SIDES, size=st.integers(1, 3000))
    def write(self, side, size):
        if not self.can_write(side):
            return
        start = self.written[side]
        accepted = self.end(side).send(self.pipe.now, STREAMS[side][start : start + size])
        self.written[side] += accepted
        self.pipe.steps += 1

    def drain(self, side, size):
        end = self.end(side)
        if end is None:
            return 0
        data = end.receive(size)
        start = self.read[side]
        assert data == STREAMS[OTHER[side]][start : start + len(data)]
        self.read[side] += len(data)
        self.pipe.steps += 1
        return len(data)

    @rule(side=SIDES, size=st.integers(1, 5000))
    def read_some(self, side, size):
        self.drain(side, size)

    @rule(side=SIDES, sure=st.integers(0, 2))
    def half_close(self, side, sure):
        if self.end(side) is not None and not self.end(side).gone and sure == 2:
            self.end(side).shutdown(self.pipe.now)
            self.pipe.steps += 1

    @rule(side=SIDES, sure=st.integers(0, 3))
    def abort(self, side, sure):
        end = self.end(side)
        if end is not None and not end.gone and sure == 3:
            end.abort()
            self.aborted = True
            assert end.state is TcpState.CLOSED and end.events[-1] == "closed"

    @rule(side=SIDES)
    def migrate(self, side):
        """PnO-TCP: the block moves to a fresh one mid-stream; the old one
        falls silent, as a crashed replica's does."""
        end = self.end(side)
        if end is not None and not end.gone and end.state in TRANSFERABLE_STATES:
            heir = self.pipe.ends[side] = End(side, self.pipe, **self.pipe.options)
            snapshot = end.export_state()
            heir.install_state(snapshot)
            assert heir.events == ["established"]
            # ``stream_read`` restarts at the heir (ROADMAP: a second move of
            # the same connection under-reports what the application read).
            assert replace(heir.export_state(), stream_read=snapshot.stream_read) == snapshot
            end._cancel_all_timers()
            self.pipe.steps += 1

    # ------------------------------------------------------------------
    # the network (§4): deliver in any order, drop, duplicate, delay
    # ------------------------------------------------------------------

    @precondition(lambda self: self.pipe.in_flight)
    @rule(index=st.integers(0, MAX_IN_FLIGHT - 1))
    def deliver(self, index):
        flight = self.pipe.in_flight
        self.pipe.deliver(*flight.pop(index % len(flight)))

    @precondition(lambda self: self.pipe.in_flight)
    @rule()
    def deliver_oldest(self):
        self.pipe.deliver(*self.pipe.in_flight.pop(0))

    @precondition(lambda self: self.pipe.in_flight)
    @rule(index=st.integers(0, MAX_IN_FLIGHT - 1))
    def drop(self, index):
        flight = self.pipe.in_flight
        del flight[index % len(flight)]

    @precondition(lambda self: self.pipe.in_flight)
    @rule(index=st.integers(0, MAX_IN_FLIGHT - 1))
    def duplicate(self, index):
        flight = self.pipe.in_flight
        flight.append(flight[index % len(flight)])

    @rule()
    def wait_for_a_timer(self):
        """Everything in flight is delayed past the next deadline."""
        self.pipe.expire_next()

    # ------------------------------------------------------------------
    # the off-path attacker: knows the 4-tuple, guesses into the window
    # ------------------------------------------------------------------

    @rule(side=SIDES, offset=st.integers(1, 70_000), kind=st.sampled_from(["rst", "syn", "ack"]))
    def forge(self, side, offset, kind):
        """An in-window RST or SYN that is no exact match, or an ACK that
        guessed ``snd_max`` but not the receive window: nothing moves."""
        end = self.end(side)
        if end is None or end.gone or end.recv_buffer is None:
            return
        before = (end.state, end.snd_una, end.snd_max, end.rcv_nxt)
        peer = OTHER[side]
        flags, ack, window = {
            "rst": (FLAG_RST, 0, 0), "syn": (FLAG_SYN, 0, 0xFFFF),
            "ack": (FLAG_ACK, end.snd_max, 0xFFFF),
        }[kind]
        if kind == "ack":
            offset += end.recv_buffer.window
        forged = TcpSegment(
            PORTS[peer], PORTS[side], seq_add(end.rcv_nxt, offset), ack, flags, window,
        ).sealed(IPS[peer], IPS[side])
        end.arrive(self.pipe.now, forged, IPS[peer])
        assert before == (end.state, end.snd_una, end.snd_max, end.rcv_nxt)
        assert not end.reset_received and "closed" not in end.events
        assert end._challenge_in_window <= end.CHALLENGE_LIMIT
        self.pipe.steps += 1

    # ------------------------------------------------------------------

    @invariant()
    def closed_blocks_run_no_timer(self):
        for end in self.pipe.ends.values():
            if end.state is TcpState.CLOSED:
                assert not end.deadlines, f"{end.side}: {sorted(end.deadlines)}"

    @invariant()
    def buffered_bytes_continue_the_prefix(self):
        for side, end in self.pipe.ends.items():
            if end.recv_buffer is not None:
                waiting = end.recv_buffer.snapshot_readable()
                start = self.read[side]
                assert waiting == STREAMS[OTHER[side]][start : start + len(waiting)]
                assert start + len(waiting) <= self.written[OTHER[side]]

    def teardown(self):
        """Faults stop, deadlines run out: both streams complete (unless an
        application aborted or the faults outlasted a retransmission limit)."""
        pipe = self.pipe
        pipe.lossy = False
        gave_up = any("give_up" in end.events for end in pipe.ends.values())
        # Whoever wrote more closes first and the other when it has read it
        # all; equal writers close at once.
        first = {side for side in IPS if self.written[side] >= self.written[OTHER[side]]}
        for turn in range(0 if self.aborted or gave_up else 5000):
            ends = list(pipe.ends.values())
            for end in ends:
                if not end.gone and (end.side in first or end.eof):
                    end.shutdown(pipe.now)
            # Slow readers — when nothing moves, and now and then while two
            # closed windows trade ACKs: windows close, persist reopens them.
            idle = not pipe.in_flight
            if (idle or turn % 50 == 49) and sum([self.drain(side, 1 << 20) for side in IPS]):
                continue
            due = pipe.due()
            if not idle and (due is None or due[0] > pipe.now + LATENCY):
                pipe.now += LATENCY
                pipe.deliver(*pipe.in_flight.pop(0))
            elif not idle:  # a timer runs out before the next one lands
                pipe.expire_next()
            elif len(ends) == 2 and all(e.state is TcpState.CLOSED for e in ends):
                assert not any(end.reset_received or end.deadlines for end in ends)
                for side in IPS:
                    assert self.read[side] == self.written[OTHER[side]], side
                    assert self.end(side).eof
                break
            elif not pipe.expire_next():
                raise AssertionError(f"stuck: {ends}")
        else:
            assert self.aborted or gave_up, f"never closed: {pipe.ends}"
        TcpCoreMachine.steps += pipe.steps


TcpCoreMachine.TestCase.settings = settings(
    max_examples=120, stateful_step_count=80, deadline=None, derandomize=True,
)
TestTcpCore = TcpCoreMachine.TestCase


# ----------------------------------------------------------------------
# orderings the search rarely draws, driven by hand on the same pipe
# ----------------------------------------------------------------------


def established_pair():
    pipe = Pipe(dict(mss=536, min_rto=0.05))
    client = pipe.ends["client"] = End("client", pipe, **pipe.options)
    client.active_open(0.0, SEQ_MOD - 300)
    while pipe.in_flight:
        pipe.deliver(*pipe.in_flight.pop(0))
    return pipe, client, pipe.ends["server"]


def test_a_fin_keeps_its_slot_when_its_ack_arrives_after_an_rto():
    """Data and FIN are delivered, the RTO fires before their ACK is, and
    one MSS of congestion window cannot carry the FIN again yet: the late
    ACK must still count the FIN's sequence slot, not mistake it for data."""
    pipe, client, server = established_pair()
    client.send(pipe.now, STREAMS["client"][:1000])
    client.shutdown(pipe.now)
    while pipe.in_flight:
        pipe.deliver(*pipe.in_flight.pop(0))
        late = [flight for flight in pipe.in_flight if flight[0] == "client"]
        pipe.in_flight[:] = [flight for flight in pipe.in_flight if flight[0] == "server"]
    assert server.fin_received and client.state is TcpState.FIN_WAIT_1
    assert pipe.due()[1:] == ("client", "rtx") and pipe.expire_next()
    assert client._fin_seq is not None and not client._fin_in_flight
    pipe.in_flight.clear()  # the retransmission is lost too
    pipe.deliver(*late[-1])
    assert client.state is TcpState.FIN_WAIT_2 and len(client.send_buffer) == 0


def test_a_fin_that_overtakes_its_data_is_not_consumed():
    pipe, client, server = established_pair()
    client.send(pipe.now, STREAMS["client"][:1000])
    pipe.in_flight.clear()  # both data segments are lost...
    client.shutdown(pipe.now)
    (fin,) = pipe.in_flight  # ...and the FIN that follows them is not
    pipe.deliver(*pipe.in_flight.pop())
    assert fin[1].fin and not server.fin_received and not server.eof
    for _ in range(200):
        if pipe.in_flight:
            pipe.deliver(*pipe.in_flight.pop(0))
        elif not server.fin_received:
            pipe.expire_next()
    assert server.receive(5000) == STREAMS["client"][:1000] and server.eof


def test_three_duplicate_acks_bring_back_the_first_unacknowledged_segment():
    pipe, client, server = established_pair()
    sent = 0
    while len(pipe.in_flight) < 5:  # open the congestion window
        while pipe.in_flight:
            pipe.deliver(*pipe.in_flight.pop(0))
        sent += client.send(pipe.now, STREAMS["client"][sent : sent + 4000])
    lost = pipe.in_flight.pop(0)[1]
    assert lost.seq == client.snd_una and "fast_rtx" not in client.events
    while "fast_rtx" not in client.events:
        pipe.deliver(*pipe.in_flight.pop(0))
    again = pipe.in_flight[-1][1]
    assert (again.seq, again.payload) == (lost.seq, lost.payload)
    assert client.retransmissions == 1 and client.cc.fast_retransmits == 1


def test_an_ack_outside_the_window_completes_no_handshake():
    """SYN_RCVD checks the sequence number before it takes the ACK: an
    off-path ACK that guessed ``iss + 1`` but not the receive window draws
    an ACK and is dropped."""
    pipe = Pipe(dict(mss=536, min_rto=0.05))
    client = pipe.ends["client"] = End("client", pipe, **pipe.options)
    client.active_open(0.0, SEQ_MOD - 300)
    pipe.deliver(*pipe.in_flight.pop())
    server = pipe.ends["server"]
    pipe.in_flight.clear()  # the SYN-ACK is lost
    forged = TcpSegment(
        PORTS["client"], PORTS["server"], seq_add(server.irs, 1 + 2**30),
        seq_add(server.iss, 1), FLAG_ACK, 0xFFFF,
    ).sealed(IPS["client"], IPS["server"])
    server.arrive(pipe.now, forged, IPS["client"])
    assert server.state is TcpState.SYN_RCVD and "established" not in server.events
    ((_, answer),) = pipe.in_flight
    assert (answer.flags, answer.ack) == (FLAG_ACK, server.rcv_nxt)


def fin_wait_2_pair():
    """The client wrote, closed and had everything acknowledged, its FIN
    included; the server has not closed yet."""
    pipe, client, server = established_pair()
    client.send(pipe.now, STREAMS["client"][:1000])
    client.shutdown(pipe.now)
    while pipe.in_flight:
        pipe.deliver(*pipe.in_flight.pop(0))
    assert (client.state, server.state) == (TcpState.FIN_WAIT_2, TcpState.CLOSE_WAIT)
    return pipe, client, server


def test_fin_wait_2_runs_no_retransmission_timer():
    """An acknowledged FIN is not in flight: while the peer's FIN is held
    back past any RTO there is nothing to retransmit and no RTO fires."""
    pipe, client, server = fin_wait_2_pair()
    assert "rtx" not in client.deadlines
    pipe.now += 10.0
    while pipe.expire_next():
        pass
    assert "rtx" not in client.events and not pipe.in_flight
    assert client.retransmissions == 0


def test_duplicate_acks_in_fin_wait_2_put_nothing_on_the_wire():
    """Three duplicate pure ACKs after our FIN is acknowledged have no
    segment to fast-retransmit (counting the acknowledged FIN as in flight
    sent ACK|FIN one past the FIN's slot)."""
    pipe, client, server = fin_wait_2_pair()
    for _ in range(3):
        server._send_ack_now()
        pipe.deliver(*pipe.in_flight.pop())
    assert not pipe.in_flight and "fast_rtx" not in client.events
