"""TCP as the RFCs write it: one transmission control block, nothing else.

A :class:`TcpCore` is the RFC 793 state machine with its send and receive
sequence variables, buffers, RTO and congestion state, the FIN bookkeeping
of both directions, the RFC 5961 reset and challenge-ACK rules, the RFC 1191
/ 5927 path-MTU clamp, and export/install of the whole block (PnO-TCP-style
transfer between replicas).  It is *standard and deterministic*, which is
all the paper asks of the replicas' stacks (§2): fed the same segments at
the same times it produces the same bytes.

Time is an argument of every entry point that can stamp or send —
:meth:`~TcpCore.active_open`, :meth:`~TcpCore.passive_open`,
:meth:`~TcpCore.send`, :meth:`~TcpCore.shutdown`, :meth:`~TcpCore.arrive`,
:meth:`~TcpCore.expire` — and the block reaches the outside through three
calls only, which whoever runs it provides:

* ``_emit(segment)`` — put a segment on the path to the peer;
* ``_deadline(kind, delay)`` — (re)start the one timer of that kind to run
  out ``delay`` seconds from now, or stop it (``None``); when it runs out
  the owner calls :meth:`~TcpCore.expire`;
* ``_event(name, **fields)`` — something happened: a lifecycle edge the
  owner must act on (``established``, ``readable``, ``writable``,
  ``time_wait``, ``closed``) or a fact worth reporting (``rtx``, ``zwp``,
  ``challenge_ack``, ...).

A block ends (``closed``) on a reset, a give-up, the ACK of its LAST_ACK
FIN, or right after ``time_wait``: TIME_WAIT is the owner's record that
keeps the 4-tuple quiet and re-ACKs stragglers, not a block on a timer.

:class:`~repro.tcp.connection.TcpConnection` is the owner that runs a block
on a host; a list-appending one drives two of them against each other in
``tests/tcp/test_core_model.py``.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Callable, Dict, Optional, Set, Tuple, Union

from repro.net.addresses import Ipv4Address
from repro.tcp.buffers import ReceiveBuffer, SendBuffer
from repro.tcp.congestion import CongestionControl
from repro.tcp.rto import RtoEstimator
from repro.tcp.segment import (
    FLAG_ACK,
    FLAG_FIN,
    FLAG_PSH,
    FLAG_RST,
    FLAG_SYN,
    TcpSegment,
)
from repro.tcp.seqnum import (
    seq_add,
    seq_between,
    seq_ge,
    seq_gt,
    seq_in_window,
    seq_le,
    seq_lt,
    seq_max,
    seq_sub,
)


class TcpState(enum.Enum):
    CLOSED = "CLOSED"
    SYN_SENT = "SYN_SENT"
    SYN_RCVD = "SYN_RCVD"
    ESTABLISHED = "ESTABLISHED"
    FIN_WAIT_1 = "FIN_WAIT_1"
    FIN_WAIT_2 = "FIN_WAIT_2"
    CLOSE_WAIT = "CLOSE_WAIT"
    CLOSING = "CLOSING"
    LAST_ACK = "LAST_ACK"
    TIME_WAIT = "TIME_WAIT"


DATA_STATES = {
    TcpState.ESTABLISHED,
    TcpState.FIN_WAIT_1,
    TcpState.FIN_WAIT_2,
}

SEND_STATES = {
    TcpState.ESTABLISHED,
    TcpState.CLOSE_WAIT,
    TcpState.FIN_WAIT_1,
    TcpState.CLOSING,
    TcpState.LAST_ACK,
}


class ConnectionReset(ConnectionError):
    """The peer reset the connection (or it was aborted locally)."""


# States a connection can be exported from / installed in.  Mid-teardown
# states are excluded: once our FIN is in flight the stream is closing
# and a joining replica gains nothing from adopting it.
TRANSFERABLE_STATES = (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT)


@dataclasses.dataclass
class TcpSnapshot:
    """A portable image of one established TCB (PnO-TCP-style transfer).

    All send-side sequence numbers are expressed in the *peer-visible*
    numbering: the exporter maps them through the bridge's Δseq (if any)
    so the snapshot can be installed on a different replica whose own ISS
    never existed on this connection.  Receive-side numbers are already
    the peer's and need no mapping.
    """

    local_port: int
    remote_ip: "Ipv4Address"
    remote_port: int
    state: str  # TcpState value
    failover: bool
    # Send side (peer-visible numbering).
    iss: int
    snd_una: int
    snd_max: int
    snd_wnd: int
    send_data: bytes
    send_next_offset: int
    fin_pending: bool
    fin_seq: Optional[int]
    fin_in_flight: bool
    fin_acked: bool
    # Receive side.
    irs: int
    rcv_nxt: int
    recv_pending: bytes  # in-order bytes the application has not read yet
    recv_window: int
    fin_received: bool
    # Sizing / options.
    mss: int
    send_capacity: int
    recv_capacity: int
    min_rto: float
    # Application stream positions, for warm-syncing the joiner's app:
    # bytes the application has written / consumed on this connection.
    stream_written: int = 0
    stream_read: int = 0


#: The timers a block can have running, in the order they are stopped:
#: retransmission, delayed ACK, persist, and the zero-delay kick that sends
#: an installed block's unsent bytes.
TIMERS = ("rtx", "delack", "persist", "output")


class TcpCore:
    """One TCP endpoint: a TCB plus its engines, on nobody's clock."""

    MAX_RETRANSMITS = 12
    SYN_MAX_RETRANSMITS = 6

    #: RFC 5961 §10: challenge ACKs are rate-limited per connection so an
    #: off-path attacker cannot use them as an unbounded probe oracle (the
    #: CVE-2016-5696 side channel was a *shared* challenge counter; a
    #: per-connection budget both bounds the traffic and starves the
    #: attacker's in-window/out-of-window signal after a few probes).
    CHALLENGE_LIMIT = 3
    CHALLENGE_WINDOW = 1.0

    #: RFC 1191 minimum: never honour an ICMP frag-needed quoting a path
    #: MTU below the IPv4 minimum reassembly size.  Off-path PMTUD attacks
    #: (RFC 5927) advertise tiny MTUs to collapse throughput.
    MIN_PMTU = 576

    def __init__(
        self,
        local_ip: Ipv4Address,
        local_port: int,
        remote_ip: Ipv4Address,
        remote_port: int,
        mss: int = 1460,
        send_buffer_size: int = 65536,
        recv_buffer_size: int = 65536,
        initial_rto: float = 1.0,
        min_rto: float = 0.2,
        delayed_ack_time: float = 0.2,
        failover: bool = False,
    ) -> None:
        self.local_ip = local_ip
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.failover = failover
        self.state = TcpState.CLOSED
        self.mss_config = mss
        self.mss = mss  # effective, lowered by the peer's MSS option
        self.delayed_ack_time = delayed_ack_time

        self.iss = 0
        self.irs = 0
        self.snd_una = 0
        self.snd_max = 0  # highest seq_end ever sent
        self.snd_wnd = 0
        self.send_buffer = SendBuffer(send_buffer_size)
        self.recv_buffer: Optional[ReceiveBuffer] = None
        self.recv_buffer_size = recv_buffer_size

        self.rto = RtoEstimator(initial_rto=initial_rto, min_rto=min_rto)
        self.cc = CongestionControl(mss)

        # FIN bookkeeping (our side).
        self._fin_pending = False  # application closed the send side
        self._fin_seq: Optional[int] = None
        self._fin_in_flight = False
        self._fin_acked = False
        # FIN bookkeeping (their side).
        self.fin_received = False

        self._armed: Set[str] = set()  # the TIMERS now running
        self._persist_backoff = 1
        self._rtx_count = 0
        self._rtt_probe: Optional[Tuple[int, float]] = None
        self._total_written = 0
        self._segs_since_ack = 0
        self._destroyed = False
        self.reset_received = False

        # RFC 5961 challenge-ACK throttle state.
        self.challenge_acks_sent = 0
        self.challenge_acks_suppressed = 0
        self._challenge_window_start = -1.0
        self._challenge_in_window = 0

        # Statistics.
        self.bytes_received = 0
        self.retransmissions = 0

    # ------------------------------------------------------------------
    # the three ways out (the owner provides them)
    # ------------------------------------------------------------------

    def _emit(self, segment: TcpSegment) -> None:
        """Put ``segment`` on the path to the peer."""
        raise NotImplementedError

    def _deadline(self, kind: str, delay: Optional[float]) -> None:
        """(Re)start the ``kind`` timer to run out in ``delay`` seconds,
        or stop it (``None``)."""
        raise NotImplementedError

    def _event(self, name: str, **fields: object) -> None:
        """``name`` happened; a callable field is a deferred renderer."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # identification helpers
    # ------------------------------------------------------------------

    @property
    def key(self) -> Tuple[Ipv4Address, int, Ipv4Address, int]:
        return (self.local_ip, self.local_port, self.remote_ip, self.remote_port)

    @property
    def snd_nxt(self) -> int:
        """Next sequence number a pure ACK should carry (highest sent)."""
        return self.snd_max

    @property
    def rcv_nxt(self) -> int:
        if self.recv_buffer is None:
            return 0
        return self.recv_buffer.rcv_nxt

    def __repr__(self) -> str:
        return (
            f"Tcp[{self.local_ip}:{self.local_port}->"
            f"{self.remote_ip}:{self.remote_port} {self.state.value}]"
        )

    # ------------------------------------------------------------------
    # opening
    # ------------------------------------------------------------------

    def active_open(self, now: float, iss: int) -> None:
        """Client side: send SYN."""
        if self.state is not TcpState.CLOSED:
            raise ValueError(f"active_open requires a fresh connection, not {self}")
        self.iss = iss
        self.snd_una = iss
        self.snd_max = iss
        self.state = TcpState.SYN_SENT
        self._send_syn(FLAG_SYN)
        self._arm_rtx()

    def passive_open(self, now: float, iss: int, syn: TcpSegment) -> None:
        """Server side: accept SYN, answer SYN-ACK."""
        if self.state is not TcpState.CLOSED:
            raise ValueError(f"passive_open requires a fresh connection, not {self}")
        self.iss = iss
        self.snd_una = iss
        self.snd_max = iss
        self._peer_syn(syn)
        self.state = TcpState.SYN_RCVD
        self._send_syn(FLAG_SYN | FLAG_ACK)
        self._arm_rtx()

    def _peer_syn(self, syn: TcpSegment) -> None:
        """What the peer's SYN fixes: its ISS, its MSS, its first window."""
        self.irs = syn.seq
        self.recv_buffer = ReceiveBuffer(
            seq_add(self.irs, 1), capacity=self.recv_buffer_size
        )
        if syn.mss_option is not None:
            self.mss = min(self.mss_config, syn.mss_option)
            self.cc.mss = self.mss
        self.snd_wnd = syn.window

    def _send_syn(self, flags: int) -> None:
        segment = self._segment(self.iss, flags, mss_option=self.mss_config)
        self.snd_max = seq_max(self.snd_max, segment.seq_end)
        self._emit(segment)

    # ------------------------------------------------------------------
    # application interface
    # ------------------------------------------------------------------

    def send(self, now: float, data: Union[bytes, bytearray, memoryview]) -> int:
        """Accept bytes into the send buffer; returns the count accepted."""
        if self.reset_received:
            raise ConnectionReset(f"{self}: connection reset")
        if self._fin_pending or self.state in (
            TcpState.FIN_WAIT_1,
            TcpState.FIN_WAIT_2,
            TcpState.CLOSING,
            TcpState.LAST_ACK,
            TcpState.TIME_WAIT,
            TcpState.CLOSED,
        ):
            raise ConnectionError(f"{self}: send side already closed")
        accepted = self.send_buffer.write(data)
        self._total_written += accepted
        if accepted and self.state in SEND_STATES:
            self._output(now)
        return accepted

    def receive(self, max_bytes: int) -> bytes:
        """Non-blocking read; empty bytes means no data available now."""
        if self.recv_buffer is None:
            return b""
        return self.recv_buffer.read(max_bytes)

    @property
    def eof(self) -> bool:
        """True once the peer's FIN was consumed and all data read."""
        return (
            self.fin_received
            and self.recv_buffer is not None
            and self.recv_buffer.readable_bytes == 0
        )

    def _readable_now(self) -> bool:
        return (
            (self.recv_buffer is not None and self.recv_buffer.readable_bytes > 0)
            or self.fin_received
            or self.reset_received
        )

    def shutdown(self, now: float) -> None:
        """Close the send direction (half-close); receive stays open.  In
        SYN_RCVD the FIN waits for the handshake to complete."""
        if self._fin_pending or self.state == TcpState.CLOSED:
            return
        self._fin_pending = True
        if self.state in SEND_STATES:
            self._maybe_send_fin(now)

    def abort(self) -> None:
        """Send RST and destroy the connection."""
        if self.state != TcpState.CLOSED:
            self._emit(self._segment(self.snd_max, FLAG_RST | FLAG_ACK, window=0))
        self._destroy(error=ConnectionReset(f"{self}: aborted locally"))

    # ------------------------------------------------------------------
    # segment transmission engine
    # ------------------------------------------------------------------

    def _segment(
        self,
        seq: int,
        flags: int,
        payload: bytes = b"",
        window: Optional[int] = None,
        mss_option: Optional[int] = None,
    ) -> TcpSegment:
        """The one place a block builds a segment: its own ports, the ACK
        field at ``rcv_nxt`` whenever the flag is set, and the window it
        can take now (before the peer's SYN: the whole buffer, clamped to
        the 16-bit field)."""
        recv = self.recv_buffer
        if window is None:
            window = min(0xFFFF, self.recv_buffer_size) if recv is None else recv.window
        return TcpSegment(
            src_port=self.local_port,
            dst_port=self.remote_port,
            seq=seq,
            ack=recv.rcv_nxt if recv is not None and flags & FLAG_ACK else 0,
            flags=flags,
            window=window,
            payload=payload,
            mss_option=mss_option,
        )

    def _data_seq(self, buffer_offset: int) -> int:
        """Sequence number of the send-buffer byte at ``buffer_offset``."""
        return seq_add(self.snd_una, buffer_offset)

    def _in_flight_seq_space(self) -> int:
        """Sequence space sent and not yet acknowledged: data, and our FIN
        until its ACK arrives."""
        flight = self.send_buffer.in_flight
        if self._fin_in_flight and not self._fin_acked:
            flight += 1
        return flight

    def _output(self, now: float) -> None:
        """Transmit as much buffered data as windows allow."""
        if self.state not in SEND_STATES:
            return
        usable = self.cc.window(self.snd_wnd) - self._in_flight_seq_space()
        sent_any = False
        while self.send_buffer.unsent_bytes > 0 and usable > 0:
            chunk = min(self.mss, self.send_buffer.unsent_bytes, usable)
            payload = self.send_buffer.peek_unsent(chunk)
            seq = self._data_seq(self.send_buffer.next_offset)
            flags = FLAG_ACK
            last_of_buffer = chunk == self.send_buffer.unsent_bytes
            if last_of_buffer:
                flags |= FLAG_PSH
            fin_now = (
                last_of_buffer
                and self._fin_pending
                and not self._fin_in_flight
                and usable > chunk
            )
            if fin_now:
                flags |= FLAG_FIN
            segment = self._segment(seq, flags, payload)
            first_transmission = seq_ge(seq, self.snd_max)
            self.send_buffer.mark_sent(chunk)
            if fin_now:
                self._register_fin_sent()
            self.snd_max = seq_max(self.snd_max, segment.seq_end)
            if first_transmission and self._rtt_probe is None:
                self._rtt_probe = (segment.seq_end, now)
            self._emit(segment)
            self._ack_was_piggybacked()
            usable -= chunk + (1 if fin_now else 0)
            sent_any = True
        if (
            self.send_buffer.unsent_bytes == 0
            and self._fin_pending
            and not self._fin_in_flight
            and self.state in SEND_STATES
        ):
            self._send_fin_only()
            sent_any = True
        if sent_any:
            self._arm_rtx()
        if (
            self.snd_wnd == 0
            and self.cc.window(1) > 0
            and (self.send_buffer.unsent_bytes > 0 or
                 (self._fin_pending and not self._fin_in_flight))
        ):
            self._arm_persist()

    def _register_fin_sent(self) -> None:
        self._fin_in_flight = True
        if self._fin_seq is None:
            self._fin_seq = self._data_seq(len(self.send_buffer))
        if self.state == TcpState.ESTABLISHED:
            self.state = TcpState.FIN_WAIT_1
        elif self.state == TcpState.CLOSE_WAIT:
            self.state = TcpState.LAST_ACK

    def _maybe_send_fin(self, now: float) -> None:
        if self.send_buffer.unsent_bytes == 0 and not self._fin_in_flight:
            if self.state in SEND_STATES:
                self._send_fin_only()
                self._arm_rtx()
        else:
            self._output(now)

    def _send_fin_only(self) -> None:
        # A retransmitted FIN keeps its original slot even if snd_una has
        # since moved (e.g. the covering ACK was processed after an RTO).
        if self._fin_seq is not None:
            seq = self._fin_seq
        else:
            seq = self._data_seq(len(self.send_buffer))
        segment = self._segment(seq, FLAG_FIN | FLAG_ACK)
        self._register_fin_sent()
        self.snd_max = seq_max(self.snd_max, segment.seq_end)
        self._emit(segment)
        self._ack_was_piggybacked()

    def _send_ack_now(self) -> None:
        if self.recv_buffer is None:
            return
        self._emit(self._segment(self.snd_max, FLAG_ACK))
        self._ack_was_piggybacked()

    def _ack_was_piggybacked(self) -> None:
        self._segs_since_ack = 0
        if "delack" in self._armed:
            self._disarm("delack")

    def _schedule_ack(self) -> None:
        """Delayed-ACK policy: every second segment, else after a timer."""
        self._segs_since_ack += 1
        if self._segs_since_ack >= 2:
            self._send_ack_now()
            return
        self._arm("delack", self.delayed_ack_time)

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------

    def _arm(self, kind: str, delay: float) -> None:
        """Start the ``kind`` timer unless it is already running."""
        if kind not in self._armed:
            self._armed.add(kind)
            self._deadline(kind, delay)

    def _disarm(self, kind: str) -> None:
        """Stop the ``kind`` timer, which is running."""
        self._armed.remove(kind)
        self._deadline(kind, None)

    def _cancel_all_timers(self) -> None:
        for kind in TIMERS:
            if kind in self._armed:
                self._disarm(kind)

    def expire(self, now: float, kind: str) -> None:
        """The ``kind`` timer ran out."""
        self._armed.discard(kind)
        self._EXPIRED[kind](self, now)

    def _arm_rtx(self) -> None:
        if "rtx" not in self._armed:  # RFC 6298 (5.1): start it if not running
            self._armed.add("rtx")
            self._deadline("rtx", self.rto.rto)

    def _restart_rtx_timer(self) -> None:
        if self._needs_rtx_timer():
            self._armed.add("rtx")
            self._deadline("rtx", self.rto.rto)
        elif "rtx" in self._armed:
            self._disarm("rtx")

    def _needs_rtx_timer(self) -> bool:
        if self.state in (TcpState.SYN_SENT, TcpState.SYN_RCVD):
            return True
        return self._in_flight_seq_space() > 0

    def _rtx_expired(self, now: float) -> None:
        if self.state == TcpState.CLOSED or not self._needs_rtx_timer():
            return
        self._rtx_count += 1
        limit = (
            self.SYN_MAX_RETRANSMITS
            if self.state in (TcpState.SYN_SENT, TcpState.SYN_RCVD)
            else self.MAX_RETRANSMITS
        )
        if self._rtx_count > limit:
            self._event("give_up", conn=self.__repr__)
            self._destroy(error=ConnectionError(f"{self}: too many retransmissions"))
            return
        self.retransmissions += 1
        self.rto.on_timeout()
        self._rtt_probe = None  # Karn's rule
        self._event(
            "rtx", conn=self.__repr__, state=self.state.value, count=self._rtx_count
        )
        if self.state == TcpState.SYN_SENT:
            self._send_syn(FLAG_SYN)
        elif self.state == TcpState.SYN_RCVD:
            self._send_syn(FLAG_SYN | FLAG_ACK)
        else:
            self.cc.on_timeout(self.send_buffer.in_flight)
            self._fin_in_flight = False
            self.send_buffer.rewind()
            self._output(now)
            if self._in_flight_seq_space() == 0 and self._fin_pending:
                # FIN-only retransmission when there is no data left.
                self._maybe_send_fin(now)
        self._arm_rtx()

    def _delack_expired(self, now: float) -> None:
        if self.state != TcpState.CLOSED:
            self._send_ack_now()

    def _arm_persist(self) -> None:
        self._arm("persist", min(60.0, self.rto.rto * self._persist_backoff))

    def _persist_expired(self, now: float) -> None:
        if self.state not in SEND_STATES or self.snd_wnd > 0:
            self._persist_backoff = 1
            return
        self._persist_backoff = min(self._persist_backoff * 2, 16)
        probe = self.send_buffer.peek_at(self.send_buffer.next_offset, 1)
        if probe:
            segment = self._segment(
                self._data_seq(self.send_buffer.next_offset), FLAG_ACK, probe
            )
            self._event("zwp", conn=self.__repr__)
            # The probe byte occupies sequence space: record it so the
            # receiver's ACK of the probe is acceptable and carries the
            # reopened window back to us.
            self.snd_max = seq_max(self.snd_max, segment.seq_end)
            self._emit(segment)
        self._arm_persist()

    # ------------------------------------------------------------------
    # segment arrival
    # ------------------------------------------------------------------

    def arrive(self, now: float, segment: TcpSegment, src_ip: Ipv4Address) -> None:
        """A segment addressed to this block's 4-tuple arrived.  None can
        arrive in TIME_WAIT: the owner answers for the block from then on
        (``time_wait`` event)."""
        if not segment.checksum_ok(src_ip, self.local_ip):
            self._event("bad_checksum", conn=self.__repr__, seg=segment.__repr__)
        elif segment.rst:
            self._handle_rst(now, segment)
        elif self.state is TcpState.SYN_SENT:
            self._arrival_syn_sent(now, segment)
        elif self.state is TcpState.SYN_RCVD:
            self._arrival_syn_rcvd(now, segment)
        else:
            self._arrival_synchronized(now, segment)

    def _handle_rst(self, now: float, segment: TcpSegment) -> None:
        # RFC 5961 §3.2: only an exact-match RST (seq == rcv_nxt; in
        # SYN_SENT, one acknowledging our SYN) tears the connection down.
        # An in-window RST draws a challenge ACK — a genuine peer answers
        # it with an exact-match RST on the next round trip, while a blind
        # attacker would have to hit one sequence number in 2^32, not one
        # window in 2^32.
        if self.state == TcpState.SYN_SENT:
            exact = segment.has_ack and segment.ack == seq_add(self.iss, 1)
        else:
            exact = segment.seq == self.rcv_nxt
        window = self.recv_buffer.window if self.recv_buffer else 0
        if exact:
            self._event("rst_received", conn=self.__repr__, seq=segment.seq)
            self._destroy(error=ConnectionReset(f"{self}: reset by peer"))
        elif window > 0 and seq_in_window(self.rcv_nxt, segment.seq, window):
            self._send_challenge_ack(now, "in-window-rst")
        # Out-of-window RSTs are dropped silently.

    def _send_challenge_ack(self, now: float, reason: str) -> None:
        """RFC 5961 challenge ACK: re-assert our state, rate-limited."""
        if now - self._challenge_window_start >= self.CHALLENGE_WINDOW:
            self._challenge_window_start = now
            self._challenge_in_window = 0
        if self._challenge_in_window >= self.CHALLENGE_LIMIT:
            self.challenge_acks_suppressed += 1
            return
        self._challenge_in_window += 1
        self.challenge_acks_sent += 1
        self._event("challenge_ack", conn=self.__repr__, reason=reason)
        self._send_ack_now()

    def _arrival_syn_sent(self, now: float, segment: TcpSegment) -> None:
        if not (segment.syn and segment.has_ack):
            return
        if segment.ack != seq_add(self.iss, 1):
            return
        self._peer_syn(segment)
        self._handshake_done()
        self._send_ack_now()
        self._event("established")
        self._output(now)

    def _handshake_done(self) -> None:
        """Our SYN is acknowledged."""
        self.snd_una = seq_add(self.iss, 1)
        self.snd_max = seq_max(self.snd_max, self.snd_una)
        self.state = TcpState.ESTABLISHED
        self._rtx_count = 0
        self._restart_rtx_timer()

    def _arrival_syn_rcvd(self, now: float, segment: TcpSegment) -> None:
        if segment.syn and segment.seq == self.irs:
            # Duplicate SYN: our SYN-ACK was lost; resend it.
            self._send_syn(FLAG_SYN | FLAG_ACK)
            return
        if not self._seq_acceptable(segment):
            # RFC 793 p.69 holds here too: an ACK that guessed iss + 1 but
            # not the receive window completes no handshake.
            self._send_ack_now()
            return
        if not segment.has_ack:
            return
        if segment.ack != seq_add(self.iss, 1):
            return
        self.snd_wnd = segment.window
        self._handshake_done()
        self._event("established")
        # The handshake ACK may carry data and/or FIN; fall through.
        if segment.payload or segment.fin:
            self._arrival_synchronized(now, segment)
        else:
            self._output(now)
        if self._fin_pending and not self._fin_in_flight:
            self._maybe_send_fin(now)

    def _arrival_synchronized(self, now: float, segment: TcpSegment) -> None:
        if segment.syn:
            # RFC 5961 §4: a SYN in a synchronized state never restarts or
            # tears down the connection; it draws a challenge ACK.  A peer
            # that genuinely rebooted answers the challenge with an
            # exact-match RST.
            self._send_challenge_ack(now, "syn-in-sync")
            return
        if not self._seq_acceptable(segment):
            # RFC 793 p.69: a segment outside the receive window is
            # dropped after re-asserting our state with a pure ACK.  This
            # is what stops a blind attacker from landing a forged ACK or
            # FIN with an arbitrary sequence number: the segment must hit
            # the receive window *and* carry a plausible ACK to be
            # processed at all.
            self._send_ack_now()
            return
        if segment.has_ack:
            self._process_ack(now, segment)
        if segment.payload:
            self._process_data(segment)
        if segment.fin:
            self._process_fin(segment)

    def _seq_acceptable(self, segment: TcpSegment) -> bool:
        """RFC 793 segment acceptability against the receive window."""
        if self.recv_buffer is None:
            return True
        window = self.recv_buffer.window
        length = segment.seq_length
        if length == 0:
            if window == 0:
                return segment.seq == self.rcv_nxt
            return seq_in_window(self.rcv_nxt, segment.seq, window)
        if window == 0:
            return False
        last = seq_add(segment.seq, length - 1)
        return seq_in_window(self.rcv_nxt, segment.seq, window) or seq_in_window(
            self.rcv_nxt, last, window
        )

    def _process_ack(self, now: float, segment: TcpSegment) -> None:
        ack = segment.ack
        if seq_gt(ack, self.snd_max):
            # Acknowledges data we never sent: ignore (send an ACK per RFC).
            self._send_ack_now()
            return
        if seq_between(self.snd_una, ack, self.snd_max):
            delta = seq_sub(ack, self.snd_una)
            # The FIN's sequence slot is fixed once it has ever been sent
            # (_fin_seq is set); whether a retransmission is currently in
            # flight is irrelevant — an RTO clears _fin_in_flight, and an
            # ACK arriving in that window must still count the FIN, or its
            # slot is mistaken for a data byte and the FIN is retransmitted
            # one past its true position forever.
            fin_covered = (
                self._fin_seq is not None
                and seq_gt(ack, self._fin_seq)
            )
            data_acked = delta - 1 if fin_covered else delta
            data_acked = min(data_acked, len(self.send_buffer))
            if data_acked > 0:
                self.send_buffer.ack_bytes(data_acked)
            self.snd_una = ack
            self._rtx_count = 0
            if fin_covered and not self._fin_acked:
                self._fin_acked = True
                self._on_our_fin_acked()
            if self._rtt_probe is not None and seq_ge(ack, self._rtt_probe[0]):
                self.rto.add_sample(now - self._rtt_probe[1])
                self._rtt_probe = None
            self.cc.on_new_ack(max(data_acked, 1))
            self.snd_wnd = segment.window
            if self.snd_wnd > 0:
                self._persist_backoff = 1
            self._restart_rtx_timer()
            if data_acked > 0:  # nothing else frees send-buffer space
                self._event("writable")
            self._output(now)
        elif ack == self.snd_una:
            old_wnd = self.snd_wnd
            self.snd_wnd = segment.window
            if (
                not segment.payload
                and segment.window == old_wnd
                and self._in_flight_seq_space() > 0
            ):
                if self.cc.on_duplicate_ack(self.send_buffer.in_flight):
                    self._fast_retransmit()
            elif self.snd_wnd > old_wnd:
                self._output(now)
        else:
            # Old acknowledgment: just refresh the window.
            self.snd_wnd = segment.window

    def _fast_retransmit(self) -> None:
        payload = self.send_buffer.peek_at(0, self.mss)
        if not payload and not self._fin_in_flight:
            return
        self.retransmissions += 1
        self._rtt_probe = None
        self._event("fast_rtx", conn=self.__repr__)
        if payload:
            flags = FLAG_ACK | FLAG_PSH
            if (
                self._fin_in_flight
                and self._fin_seq is not None
                and len(payload) == len(self.send_buffer)
            ):
                flags |= FLAG_FIN
        else:
            flags = FLAG_FIN | FLAG_ACK
        self._emit(self._segment(self.snd_una, flags, payload))
        self._ack_was_piggybacked()

    def _process_data(self, segment: TcpSegment) -> None:
        if self.state not in DATA_STATES:
            # e.g. data after we saw FIN: just re-ACK.
            self._send_ack_now()
            return
        assert self.recv_buffer is not None
        advanced = self.recv_buffer.receive(segment.seq, segment.payload)
        if advanced > 0:
            self.bytes_received += advanced
            self._event("readable")
            self._schedule_ack()
        else:
            # Duplicate or out-of-order: immediate ACK helps fast retransmit.
            self._send_ack_now()

    def _process_fin(self, segment: TcpSegment) -> None:
        fin_seq = seq_add(segment.seq, len(segment.payload))
        if self.fin_received:
            # Duplicate of the FIN we already consumed (its slot now sits
            # one below rcv_nxt): the peer's state machine is waiting on
            # our ACK, so a silent drop would wedge it until rtx give-up.
            if seq_le(fin_seq, self.rcv_nxt):
                self._send_ack_now()
            return
        if fin_seq != self.rcv_nxt:
            return  # out of order; the FIN will be retransmitted
        assert self.recv_buffer is not None
        self.fin_received = True
        self.recv_buffer.advance_past_fin()
        self._send_ack_now()
        self._event("readable")
        if self.state == TcpState.ESTABLISHED:
            self.state = TcpState.CLOSE_WAIT
        elif self.state == TcpState.FIN_WAIT_1:
            # Our FIN not yet acked (else we'd be in FIN_WAIT_2).
            self.state = TcpState.CLOSING
        elif self.state == TcpState.FIN_WAIT_2:
            self._enter_time_wait()

    def _on_our_fin_acked(self) -> None:
        if self.state == TcpState.FIN_WAIT_1:
            self.state = TcpState.FIN_WAIT_2
        elif self.state == TcpState.CLOSING:
            self._enter_time_wait()
        elif self.state == TcpState.LAST_ACK:
            self._destroy(error=None)

    def _enter_time_wait(self) -> None:
        self.state = TcpState.TIME_WAIT
        self._event("time_wait")  # the owner's linger record takes over
        self._destroy(error=None)

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------

    def _destroy(self, error: Optional[BaseException]) -> None:
        if self._destroyed:
            return
        self._destroyed = True
        self.state = TcpState.CLOSED
        self._cancel_all_timers()
        if error is not None:
            self.reset_received = True
        self._event("closed", error=error)

    # ------------------------------------------------------------------
    # path MTU discovery
    # ------------------------------------------------------------------

    def apply_mtu_hint(self, mtu: int, quoted_seq: int) -> bool:
        """Clamp the effective MSS from an ICMP fragmentation-needed quote.

        RFC 5927-style validation: the quoted sequence number must fall
        inside the currently outstanding send window — an off-path
        attacker does not know it, so blind PMTUD probes are rejected —
        and the advertised MTU must not be below the IPv4 minimum
        (:data:`MIN_PMTU`).  Returns True if the clamp was applied.
        """
        if mtu < self.MIN_PMTU:
            return False
        if not (seq_le(self.snd_una, quoted_seq) and seq_lt(quoted_seq, self.snd_max)):
            return False  # quotes nothing we have outstanding
        new_mss = max(self.MIN_PMTU - 40, mtu - 40)
        if new_mss >= self.mss:
            return False
        self.mss = new_mss
        self.cc.mss = new_mss
        self._event("pmtud_clamp", conn=self.__repr__, mss=new_mss)
        return True

    # ------------------------------------------------------------------
    # failover support
    # ------------------------------------------------------------------

    def rebind_local_ip(self, new_ip: Ipv4Address) -> None:
        """Re-home this TCB onto a new local address (IP takeover, §5).

        The paper's kernel achieves the same effect with bridge address
        translation; re-keying the TCB is the equivalent observable
        behaviour for a userspace stack (documented in DESIGN.md).
        """
        self.local_ip = new_ip

    def export_state(self, map_seq: Optional[Callable[[int], int]] = None) -> TcpSnapshot:
        """Export this TCB as a :class:`TcpSnapshot` (reintegration).

        ``map_seq`` translates send-side sequence numbers into the
        peer-visible numbering (the bridge's Δseq); identity when the TCB
        already speaks the peer's space (a promoted secondary).  Only
        :data:`TRANSFERABLE_STATES` can be exported — a closing stream is
        not worth adopting.
        """
        if self.state not in TRANSFERABLE_STATES:
            raise ValueError(f"cannot export {self}: state {self.state.value}")
        if map_seq is None:
            map_seq = lambda seq: seq  # noqa: E731 - identity numbering
        recv = self.recv_buffer
        pending = recv.snapshot_readable() if recv is not None else b""
        return TcpSnapshot(
            local_port=self.local_port,
            remote_ip=self.remote_ip,
            remote_port=self.remote_port,
            state=self.state.value,
            failover=self.failover,
            iss=map_seq(self.iss),
            snd_una=map_seq(self.snd_una),
            snd_max=map_seq(self.snd_max),
            snd_wnd=self.snd_wnd,
            send_data=bytes(self.send_buffer._data),
            send_next_offset=self.send_buffer.next_offset,
            fin_pending=self._fin_pending,
            fin_seq=map_seq(self._fin_seq) if self._fin_seq is not None else None,
            fin_in_flight=self._fin_in_flight,
            fin_acked=self._fin_acked,
            irs=self.irs,
            rcv_nxt=self.rcv_nxt,
            recv_pending=pending,
            recv_window=recv.window if recv is not None else 0,
            fin_received=self.fin_received,
            mss=self.mss,
            send_capacity=self.send_buffer.capacity,
            recv_capacity=self.recv_buffer_size,
            min_rto=self.rto.min_rto,
            stream_written=self._total_written,
            stream_read=(recv.total_received - recv.readable_bytes) if recv else 0,
        )

    def install_state(self, snapshot: TcpSnapshot) -> None:
        """Adopt a snapshot exported from another replica.

        The connection must be freshly constructed (CLOSED, never opened).
        Afterwards it behaves exactly as if it had lived through the
        handshake and every exchanged byte: in-flight data retransmits on
        RTO, unsent data transmits, pending bytes are readable.
        """
        if self.state != TcpState.CLOSED or self._destroyed:
            raise ValueError(f"install_state requires a fresh connection, not {self}")
        state = TcpState(snapshot.state)
        if state not in TRANSFERABLE_STATES:
            raise ValueError(f"cannot install snapshot in state {snapshot.state}")
        self.state = state
        self.iss = snapshot.iss
        self.irs = snapshot.irs
        self.snd_una = snapshot.snd_una
        self.snd_max = snapshot.snd_max
        self.snd_wnd = snapshot.snd_wnd
        self.mss = min(self.mss, snapshot.mss)
        self.send_buffer.restore(snapshot.send_data, snapshot.send_next_offset)
        self.recv_buffer = ReceiveBuffer(
            snapshot.rcv_nxt, capacity=self.recv_buffer_size
        )
        self.recv_buffer.restore_readable(snapshot.recv_pending)
        self._fin_pending = snapshot.fin_pending
        self._fin_seq = snapshot.fin_seq
        self._fin_in_flight = snapshot.fin_in_flight
        self._fin_acked = snapshot.fin_acked
        self.fin_received = snapshot.fin_received
        self._total_written = snapshot.stream_written
        self._event("established")
        if self._needs_rtx_timer():
            self._arm_rtx()
        if self.send_buffer.unsent_bytes or (
            self._fin_pending and not self._fin_in_flight
        ):
            self._arm("output", 0.0)

    #: what :meth:`expire` runs for each of the :data:`TIMERS`
    _EXPIRED: Dict[str, Callable[["TcpCore", float], None]] = {
        "rtx": _rtx_expired,
        "delack": _delack_expired,
        "persist": _persist_expired,
        "output": _output,
    }
