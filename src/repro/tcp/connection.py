"""TCP connection state machine.

One :class:`TcpConnection` is a transmission control block: RFC 793 states,
send/receive sequence variables, buffers, timers and the segment
send/receive engines.  Connections never talk to the network directly —
every outgoing segment goes through the owning
:class:`~repro.tcp.layer.TcpLayer`, which hands it to the host, which hands
it to the failover bridge when one is installed.  The connection therefore
has no idea whether it is replicated, which is precisely the transparency
property the paper claims for server applications.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Callable, List, Optional, Tuple, Union

from repro.net.addresses import Ipv4Address
from repro.sim.process import Event
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


class TcpConnection:
    """One TCP endpoint (a TCB plus its engines)."""

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
        layer: "TcpLayer",  # noqa: F821 - forward ref, avoids import cycle
        local_ip: Ipv4Address,
        local_port: int,
        remote_ip: Ipv4Address,
        remote_port: int,
        mss: int = 1460,
        send_buffer_size: int = 65536,
        recv_buffer_size: int = 65536,
        initial_rto: float = 1.0,
        min_rto: float = 0.2,
        msl: float = 5.0,
        delayed_ack_time: float = 0.2,
        failover: bool = False,
    ):
        self.layer = layer
        self.sim = layer.sim
        self.tracer = layer.tracer
        self.local_ip = local_ip
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.failover = failover
        self.state = TcpState.CLOSED
        self.mss_config = mss
        self.mss = mss  # effective, lowered by the peer's MSS option
        self.msl = msl
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

        self._rtx_timer = None
        self._delack_timer = None
        self._persist_timer = None
        self._time_wait_timer = None
        self._persist_backoff = 1
        self._rtx_count = 0
        self._rtt_probe: Optional[Tuple[int, float]] = None
        self._total_written = 0
        self._segs_since_ack = 0

        self.established_event = Event(self.sim, name="tcp.established")
        # terminated: the four-way handshake finished (TIME_WAIT counts);
        # closed: the TCB is destroyed (after 2*MSL for the active closer).
        self.terminated_event = Event(self.sim, name="tcp.terminated")
        self.closed_event = Event(self.sim, name="tcp.closed")
        self._readable_waiters: List[Event] = []
        self._writable_waiters: List[Event] = []
        self.reset_received = False

        # RFC 5961 challenge-ACK throttle state.
        self.challenge_acks_sent = 0
        self.challenge_acks_suppressed = 0
        self._challenge_window_start = -1.0
        self._challenge_in_window = 0

        # Statistics.
        self.bytes_sent = 0
        self.bytes_received = 0
        self.segments_sent = 0
        self.segments_received = 0
        self.retransmissions = 0

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

    def open_active(self) -> None:
        """Client side: send SYN."""
        if self.state is not TcpState.CLOSED:
            raise ValueError(f"open_active requires a fresh connection, not {self}")
        self.iss = self.layer.choose_iss()
        self.snd_una = self.iss
        self.snd_max = self.iss
        self.state = TcpState.SYN_SENT
        self._send_syn(with_ack=False)
        self._start_rtx_timer()

    def open_passive(self, syn: TcpSegment) -> None:
        """Server side: accept SYN, answer SYN-ACK."""
        if self.state is not TcpState.CLOSED:
            raise ValueError(f"open_passive requires a fresh connection, not {self}")
        self.iss = self.layer.choose_iss()
        self.snd_una = self.iss
        self.snd_max = self.iss
        self.irs = syn.seq
        self.recv_buffer = ReceiveBuffer(
            seq_add(self.irs, 1), capacity=self.recv_buffer_size
        )
        if syn.mss_option is not None:
            self.mss = min(self.mss_config, syn.mss_option)
            self.cc.mss = self.mss
        self.snd_wnd = syn.window
        self.state = TcpState.SYN_RCVD
        self._send_syn(with_ack=True)
        self._start_rtx_timer()

    def _send_syn(self, with_ack: bool) -> None:
        flags = FLAG_SYN | (FLAG_ACK if with_ack else 0)
        segment = TcpSegment(
            src_port=self.local_port,
            dst_port=self.remote_port,
            seq=self.iss,
            ack=self.rcv_nxt if with_ack else 0,
            flags=flags,
            window=self.recv_buffer.window if self.recv_buffer else self.recv_buffer_size_clamped(),
            mss_option=self.mss_config,
        )
        self.snd_max = seq_max(self.snd_max, segment.seq_end)
        self._transmit(segment)

    def recv_buffer_size_clamped(self) -> int:
        return min(0xFFFF, self.recv_buffer_size)

    # ------------------------------------------------------------------
    # application interface
    # ------------------------------------------------------------------

    def write(self, data: Union[bytes, bytearray, memoryview]) -> int:
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
            self._output()
        return accepted

    def read(self, max_bytes: int) -> bytes:
        """Non-blocking read; empty bytes means no data available now."""
        if self.recv_buffer is None:
            return b""
        data = self.recv_buffer.read(max_bytes)
        return data

    @property
    def eof(self) -> bool:
        """True once the peer's FIN was consumed and all data read."""
        return (
            self.fin_received
            and self.recv_buffer is not None
            and self.recv_buffer.readable_bytes == 0
        )

    def close(self) -> None:
        """Close the send direction (half-close); receive stays open."""
        if self._fin_pending or self.state == TcpState.CLOSED:
            return
        self._fin_pending = True
        if self.state in SEND_STATES or self.state in (
            TcpState.SYN_RCVD,
        ):
            self._maybe_send_fin()

    def abort(self) -> None:
        """Send RST and destroy the connection."""
        if self.state not in (TcpState.CLOSED,):
            rst = TcpSegment(
                src_port=self.local_port,
                dst_port=self.remote_port,
                seq=self.snd_max,
                ack=self.rcv_nxt,
                flags=FLAG_RST | FLAG_ACK,
                window=0,
            )
            self._transmit(rst)
        self._destroy(error=ConnectionReset(f"{self}: aborted locally"))

    def wait_readable(self) -> Event:
        """Event that fires when data/EOF/reset is available."""
        event = Event(self.sim, name="tcp.readable")
        if self._readable_now():
            event.succeed()
        else:
            self._readable_waiters.append(event)
        return event

    def wait_writable(self) -> Event:
        """Event that fires when the send buffer has space (or on error)."""
        event = Event(self.sim, name="tcp.writable")
        if self.send_buffer.free_space > 0 or self.reset_received:
            event.succeed()
        else:
            self._writable_waiters.append(event)
        return event

    def _readable_now(self) -> bool:
        return (
            (self.recv_buffer is not None and self.recv_buffer.readable_bytes > 0)
            or self.fin_received
            or self.reset_received
        )

    def _wake_readers(self) -> None:
        if not self._readable_now():
            return
        waiters, self._readable_waiters = self._readable_waiters, []
        for event in waiters:
            if not event.triggered:
                event.succeed()

    def _wake_writers(self) -> None:
        if self.send_buffer.free_space <= 0 and not self.reset_received:
            return
        waiters, self._writable_waiters = self._writable_waiters, []
        for event in waiters:
            if not event.triggered:
                event.succeed()

    # ------------------------------------------------------------------
    # segment transmission engine
    # ------------------------------------------------------------------

    def _transmit(self, segment: TcpSegment) -> None:
        self.segments_sent += 1
        self.layer.send_segment(segment, self.local_ip, self.remote_ip)

    def _data_seq(self, buffer_offset: int) -> int:
        """Sequence number of the send-buffer byte at ``buffer_offset``."""
        return seq_add(self.snd_una, buffer_offset)

    def _in_flight_seq_space(self) -> int:
        flight = self.send_buffer.in_flight
        if self._fin_in_flight:
            flight += 1
        return flight

    def _output(self) -> None:
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
            segment = TcpSegment(
                src_port=self.local_port,
                dst_port=self.remote_port,
                seq=seq,
                ack=self.rcv_nxt,
                flags=flags,
                window=self.recv_buffer.window if self.recv_buffer else 0,
                payload=payload,
            )
            first_transmission = seq_ge(seq, self.snd_max)
            self.send_buffer.mark_sent(chunk)
            if fin_now:
                self._register_fin_sent()
            self.bytes_sent += chunk
            self.snd_max = seq_max(self.snd_max, segment.seq_end)
            if first_transmission and self._rtt_probe is None:
                self._rtt_probe = (segment.seq_end, self.sim.now)
            self._transmit(segment)
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
            self._start_rtx_timer()
        if (
            self.snd_wnd == 0
            and self.cc.window(1) > 0
            and (self.send_buffer.unsent_bytes > 0 or
                 (self._fin_pending and not self._fin_in_flight))
            and self._persist_timer is None
        ):
            self._start_persist_timer()

    def _register_fin_sent(self) -> None:
        self._fin_in_flight = True
        if self._fin_seq is None:
            self._fin_seq = self._data_seq(len(self.send_buffer))
        if self.state == TcpState.ESTABLISHED:
            self.state = TcpState.FIN_WAIT_1
        elif self.state == TcpState.CLOSE_WAIT:
            self.state = TcpState.LAST_ACK

    def _maybe_send_fin(self) -> None:
        if self.send_buffer.unsent_bytes == 0 and not self._fin_in_flight:
            if self.state in SEND_STATES or self.state == TcpState.SYN_RCVD:
                if self.state == TcpState.SYN_RCVD:
                    # FIN allowed once the handshake completes; defer.
                    return
                self._send_fin_only()
                self._start_rtx_timer()
        else:
            self._output()

    def _send_fin_only(self) -> None:
        # A retransmitted FIN keeps its original slot even if snd_una has
        # since moved (e.g. the covering ACK was processed after an RTO).
        if self._fin_seq is not None:
            seq = self._fin_seq
        else:
            seq = self._data_seq(len(self.send_buffer))
        segment = TcpSegment(
            src_port=self.local_port,
            dst_port=self.remote_port,
            seq=seq,
            ack=self.rcv_nxt,
            flags=FLAG_FIN | FLAG_ACK,
            window=self.recv_buffer.window if self.recv_buffer else 0,
        )
        self._register_fin_sent()
        self.snd_max = seq_max(self.snd_max, segment.seq_end)
        self._transmit(segment)
        self._ack_was_piggybacked()

    def _send_ack_now(self) -> None:
        if self.recv_buffer is None:
            return
        segment = TcpSegment(
            src_port=self.local_port,
            dst_port=self.remote_port,
            seq=self.snd_max,
            ack=self.rcv_nxt,
            flags=FLAG_ACK,
            window=self.recv_buffer.window,
        )
        self._transmit(segment)
        self._ack_was_piggybacked()

    def _ack_was_piggybacked(self) -> None:
        self._segs_since_ack = 0
        if self._delack_timer is not None:
            self._delack_timer.cancel()
            self._delack_timer = None

    def _schedule_ack(self) -> None:
        """Delayed-ACK policy: every second segment, else after a timer."""
        self._segs_since_ack += 1
        if self._segs_since_ack >= 2:
            self._send_ack_now()
            return
        if self._delack_timer is None:
            self._delack_timer = self.sim.schedule(
                self.delayed_ack_time, self._delack_fired
            )

    def _delack_fired(self) -> None:
        self._delack_timer = None
        if self.state != TcpState.CLOSED:
            self._send_ack_now()

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------

    def _start_rtx_timer(self) -> None:
        if self._rtx_timer is not None:
            return
        self._rtx_timer = self.sim.schedule(self.rto.rto, self._rtx_fired)

    def _restart_rtx_timer(self) -> None:
        if self._rtx_timer is not None:
            self._rtx_timer.cancel()
            self._rtx_timer = None
        if self._needs_rtx_timer():
            self._start_rtx_timer()

    def _needs_rtx_timer(self) -> bool:
        if self.state in (TcpState.SYN_SENT, TcpState.SYN_RCVD):
            return True
        return self._in_flight_seq_space() > 0

    def _rtx_fired(self) -> None:
        self._rtx_timer = None
        if self.state == TcpState.CLOSED:
            return
        if not self._needs_rtx_timer():
            return
        self._rtx_count += 1
        limit = (
            self.SYN_MAX_RETRANSMITS
            if self.state in (TcpState.SYN_SENT, TcpState.SYN_RCVD)
            else self.MAX_RETRANSMITS
        )
        if self._rtx_count > limit:
            self.tracer.emit(self.sim.now, "tcp.give_up", self.layer.node_name,
                             conn=self.__repr__)
            self._destroy(error=ConnectionError(f"{self}: too many retransmissions"))
            return
        self.retransmissions += 1
        self.layer._m_rtx.inc()
        self.rto.on_timeout()
        self._rtt_probe = None  # Karn's rule
        self.tracer.emit(
            self.sim.now, "tcp.rtx", self.layer.node_name,
            conn=self.__repr__, state=self.state.value, count=self._rtx_count,
        )
        if self.state == TcpState.SYN_SENT:
            self._send_syn(with_ack=False)
        elif self.state == TcpState.SYN_RCVD:
            self._send_syn(with_ack=True)
        else:
            self.cc.on_timeout(self.send_buffer.in_flight)
            self._fin_in_flight = False
            self.send_buffer.rewind()
            self._output()
            if self._in_flight_seq_space() == 0 and self._fin_pending:
                # FIN-only retransmission when there is no data left.
                self._maybe_send_fin()
        self._start_rtx_timer()

    def _start_persist_timer(self) -> None:
        interval = min(60.0, self.rto.rto * self._persist_backoff)
        self._persist_timer = self.sim.schedule(interval, self._persist_fired)

    def _persist_fired(self) -> None:
        self._persist_timer = None
        if self.state not in SEND_STATES or self.snd_wnd > 0:
            self._persist_backoff = 1
            return
        self._persist_backoff = min(self._persist_backoff * 2, 16)
        probe = self.send_buffer.peek_at(self.send_buffer.next_offset, 1)
        if probe:
            segment = TcpSegment(
                src_port=self.local_port,
                dst_port=self.remote_port,
                seq=self._data_seq(self.send_buffer.next_offset),
                ack=self.rcv_nxt,
                flags=FLAG_ACK,
                window=self.recv_buffer.window if self.recv_buffer else 0,
                payload=probe,
            )
            self.tracer.emit(self.sim.now, "tcp.zwp", self.layer.node_name, conn=self.__repr__)
            # The probe byte occupies sequence space: record it so the
            # receiver's ACK of the probe is acceptable and carries the
            # reopened window back to us.
            self.snd_max = seq_max(self.snd_max, segment.seq_end)
            self._transmit(segment)
        self._start_persist_timer()

    def _cancel_all_timers(self) -> None:
        for timer_name in ("_rtx_timer", "_delack_timer", "_persist_timer", "_time_wait_timer"):
            timer = getattr(self, timer_name)
            if timer is not None:
                timer.cancel()
                setattr(self, timer_name, None)

    # ------------------------------------------------------------------
    # segment arrival
    # ------------------------------------------------------------------

    def segment_arrived(self, segment: TcpSegment, src_ip: Ipv4Address) -> None:
        self.segments_received += 1
        if not segment.checksum_ok(src_ip, self.local_ip):
            self.tracer.emit(
                self.sim.now, "tcp.bad_checksum", self.layer.node_name,
                conn=self.__repr__, seg=segment.__repr__,
            )
            return
        if segment.rst:
            self._handle_rst(segment)
            return
        handler = {
            TcpState.SYN_SENT: self._arrival_syn_sent,
            TcpState.SYN_RCVD: self._arrival_syn_rcvd,
            TcpState.TIME_WAIT: self._arrival_time_wait,
        }.get(self.state, self._arrival_synchronized)
        handler(segment)

    def _handle_rst(self, segment: TcpSegment) -> None:
        if self.state == TcpState.SYN_SENT:
            if segment.has_ack and segment.ack == seq_add(self.iss, 1):
                self.tracer.emit(
                    self.sim.now, "tcp.rst_received", self.layer.node_name,
                    conn=self.__repr__, seq=segment.seq,
                )
                self._destroy(error=ConnectionReset(f"{self}: reset by peer"))
            return
        # RFC 5961 §3.2: only an exact-match RST (seq == rcv_nxt) tears the
        # connection down.  An in-window RST draws a challenge ACK — a
        # genuine peer answers it with an exact-match RST on the next round
        # trip, while a blind attacker would have to hit one sequence
        # number in 2^32, not one window in 2^32.
        if segment.seq == self.rcv_nxt:
            self.tracer.emit(
                self.sim.now, "tcp.rst_received", self.layer.node_name,
                conn=self.__repr__, seq=segment.seq,
            )
            self._destroy(error=ConnectionReset(f"{self}: reset by peer"))
            return
        window = self.recv_buffer.window if self.recv_buffer else 0
        if window > 0 and seq_in_window(self.rcv_nxt, segment.seq, window):
            self._send_challenge_ack("in-window-rst")
        # Out-of-window RSTs are dropped silently.

    def _send_challenge_ack(self, reason: str) -> None:
        """RFC 5961 challenge ACK: re-assert our state, rate-limited."""
        if self.sim.now - self._challenge_window_start >= self.CHALLENGE_WINDOW:
            self._challenge_window_start = self.sim.now
            self._challenge_in_window = 0
        if self._challenge_in_window >= self.CHALLENGE_LIMIT:
            self.challenge_acks_suppressed += 1
            return
        self._challenge_in_window += 1
        self.challenge_acks_sent += 1
        self.layer._m_challenge.inc()
        self.tracer.emit(
            self.sim.now, "tcp.challenge_ack", self.layer.node_name,
            conn=self.__repr__, reason=reason,
        )
        self._send_ack_now()

    def _arrival_syn_sent(self, segment: TcpSegment) -> None:
        if not (segment.syn and segment.has_ack):
            return
        if segment.ack != seq_add(self.iss, 1):
            return
        self.irs = segment.seq
        self.recv_buffer = ReceiveBuffer(
            seq_add(self.irs, 1), capacity=self.recv_buffer_size
        )
        if segment.mss_option is not None:
            self.mss = min(self.mss_config, segment.mss_option)
            self.cc.mss = self.mss
        self.snd_una = seq_add(self.iss, 1)
        self.snd_max = seq_max(self.snd_max, self.snd_una)
        self.snd_wnd = segment.window
        self.state = TcpState.ESTABLISHED
        self._rtx_count = 0
        self._restart_rtx_timer()
        self._send_ack_now()
        if not self.established_event.triggered:
            self.established_event.succeed(self)
        self._output()

    def _arrival_syn_rcvd(self, segment: TcpSegment) -> None:
        if segment.syn and segment.seq == self.irs:
            # Duplicate SYN: our SYN-ACK was lost; resend it.
            self._send_syn(with_ack=True)
            return
        if not segment.has_ack:
            return
        if segment.ack != seq_add(self.iss, 1):
            return
        self.snd_una = seq_add(self.iss, 1)
        self.snd_max = seq_max(self.snd_max, self.snd_una)
        self.snd_wnd = segment.window
        self.state = TcpState.ESTABLISHED
        self._rtx_count = 0
        self._restart_rtx_timer()
        if not self.established_event.triggered:
            self.established_event.succeed(self)
        self.layer.connection_established(self)
        # The handshake ACK may carry data and/or FIN; fall through.
        if segment.payload or segment.fin:
            self._arrival_synchronized(segment)
        else:
            self._output()
        if self._fin_pending and not self._fin_in_flight:
            self._maybe_send_fin()

    def _arrival_time_wait(self, segment: TcpSegment) -> None:
        # A retransmitted FIN means our last ACK was lost: re-ACK, restart 2MSL.
        if segment.fin:
            self._send_ack_now()
            if self._time_wait_timer is not None:
                self._time_wait_timer.cancel()
            self._time_wait_timer = self.sim.schedule(2 * self.msl, self._time_wait_expired)

    def _arrival_synchronized(self, segment: TcpSegment) -> None:
        if segment.syn:
            # RFC 5961 §4: a SYN in a synchronized state never restarts or
            # tears down the connection; it draws a challenge ACK.  A peer
            # that genuinely rebooted answers the challenge with an
            # exact-match RST.
            self._send_challenge_ack("syn-in-sync")
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
            self._process_ack(segment)
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

    def _process_ack(self, segment: TcpSegment) -> None:
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
                self.rto.add_sample(self.sim.now - self._rtt_probe[1])
                self._rtt_probe = None
            self.cc.on_new_ack(max(data_acked, 1))
            self.snd_wnd = segment.window
            if self.snd_wnd > 0:
                self._persist_backoff = 1
            self._restart_rtx_timer()
            self._wake_writers()
            self._output()
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
                self._output()
        else:
            # Old acknowledgment: just refresh the window.
            self.snd_wnd = segment.window

    def _fast_retransmit(self) -> None:
        payload = self.send_buffer.peek_at(0, self.mss)
        if not payload and not self._fin_in_flight:
            return
        self.retransmissions += 1
        self.layer._m_fast_rtx.inc()
        self._rtt_probe = None
        self.tracer.emit(
            self.sim.now, "tcp.fast_rtx", self.layer.node_name, conn=self.__repr__
        )
        if payload:
            flags = FLAG_ACK | FLAG_PSH
            fin_too = (
                self._fin_in_flight
                and self._fin_seq is not None
                and len(payload) == len(self.send_buffer)
            )
            if fin_too:
                flags |= FLAG_FIN
            segment = TcpSegment(
                src_port=self.local_port,
                dst_port=self.remote_port,
                seq=self.snd_una,
                ack=self.rcv_nxt,
                flags=flags,
                window=self.recv_buffer.window if self.recv_buffer else 0,
                payload=payload,
            )
        else:
            segment = TcpSegment(
                src_port=self.local_port,
                dst_port=self.remote_port,
                seq=self.snd_una,
                ack=self.rcv_nxt,
                flags=FLAG_FIN | FLAG_ACK,
                window=self.recv_buffer.window if self.recv_buffer else 0,
            )
        self._transmit(segment)
        self._ack_was_piggybacked()

    def _process_data(self, segment: TcpSegment) -> None:
        if self.state not in DATA_STATES:
            # e.g. data after we saw FIN: just re-ACK.
            self._send_ack_now()
            return
        advanced = self.recv_buffer.receive(segment.seq, segment.payload)
        if advanced > 0:
            self.bytes_received += advanced
            self._wake_readers()
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
        self.fin_received = True
        self.recv_buffer.advance_past_fin()
        self._send_ack_now()
        self._wake_readers()
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
        self._cancel_all_timers()
        if not self.terminated_event.triggered:
            self.terminated_event.succeed()
        self._time_wait_timer = self.sim.schedule(2 * self.msl, self._time_wait_expired)
        # Hand the 4-tuple to the layer's linger table right away: it
        # answers stragglers and guards same-remote reuse, so the TCB
        # itself no longer needs to occupy the connection table (which
        # would hold the ephemeral port hostage for the full 2·MSL on
        # top of the linger window — see TcpLayer.retire_to_linger).
        self.layer.retire_to_linger(self)

    def _time_wait_expired(self) -> None:
        self._time_wait_timer = None
        self._destroy(error=None)

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------

    def _destroy(self, error: Optional[BaseException]) -> None:
        if self.state == TcpState.CLOSED and self.closed_event.triggered:
            return
        self.state = TcpState.CLOSED
        self._cancel_all_timers()
        if error is not None:
            self.reset_received = True
            if not self.established_event.triggered:
                self.established_event.fail(error)
        for event in self._readable_waiters + self._writable_waiters:
            if not event.triggered:
                event.succeed()
        self._readable_waiters = []
        self._writable_waiters = []
        if not self.terminated_event.triggered:
            self.terminated_event.succeed()
        if not self.closed_event.triggered:
            self.closed_event.succeed()
        self.layer.deregister(self)

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
        self.tracer.emit(
            self.sim.now, "tcp.pmtud_clamp", self.layer.node_name,
            conn=self.__repr__, mss=new_mss,
        )
        return True

    # ------------------------------------------------------------------
    # failover support
    # ------------------------------------------------------------------

    def rebind_local_ip(self, new_ip: Ipv4Address) -> None:
        """Re-home this TCB onto a new local address (IP takeover, §5).

        The paper's kernel achieves the same effect with bridge address
        translation; re-keying the TCB is the equivalent observable
        behaviour for a simulated stack (documented in DESIGN.md).
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
        if self.state != TcpState.CLOSED or self.established_event.triggered:
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
        self.established_event.succeed()
        if self._needs_rtx_timer():
            self._start_rtx_timer()
        if self.send_buffer.unsent_bytes or (
            self._fin_pending and not self._fin_in_flight
        ):
            self.sim.schedule(0, self._output)
