"""A TCP connection on a simulated host: the shell around :class:`TcpCore`.

The transmission control block and every rule that moves it live in
:mod:`repro.tcp.core` and know nothing of a simulator.  A
:class:`TcpConnection` is what puts one on a host, by being the three
calls the core speaks through:

* ``_emit`` hands a segment to the owning :class:`~repro.tcp.layer.TcpLayer`,
  which hands it to the host, which hands it to the failover bridge when
  one is installed — so the connection has no idea whether it is
  replicated, which is precisely the transparency property the paper
  claims for server applications;
* ``_deadline`` keeps at most one armed simulator timer per kind;
* ``_event`` turns lifecycle edges into the :class:`~repro.sim.process.Event`
  objects applications block on and into calls on the layer (accept queue,
  linger table, deregistration), and passes everything else to the layer's
  ``EVENTS`` table.

The entry points take the time from the simulator and pass it in (the
layer does the same when it opens a connection, along with the ISS).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Union

from repro.net.addresses import Ipv4Address
from repro.sim.engine import Timer
from repro.sim.process import Event
from repro.tcp.core import (
    TIMER_FIELD,
    TRANSFERABLE_STATES,
    ConnectionReset,
    TcpCore,
    TcpSnapshot,
    TcpState,
)
from repro.tcp.segment import TcpSegment

if TYPE_CHECKING:
    from repro.tcp.layer import Listener, TcpLayer

__all__ = [
    "TRANSFERABLE_STATES", "ConnectionReset", "TcpConnection", "TcpSnapshot", "TcpState",
]


class TcpConnection(TcpCore):
    """One TCP endpoint of a host (``layer``, then the TCB's own options:
    see :class:`~repro.tcp.core.TcpCore`)."""

    __slots__ = (
        "layer", "sim",
        "_listener",  # the listener whose SYN created this connection (set by the layer)
        # The lifecycle events, each built when first asked for: until then
        # None (not yet), True (passed) or the error it failed with.
        "_established_ev", "_terminated_ev", "_closed_ev",
        # Events handed out by wait_readable / wait_writable, not yet fired
        # (None until the first wait).
        "_readable_waiters", "_writable_waiters",
    )

    def __init__(self, layer: "TcpLayer", *endpoints: Any, **options: Any) -> None:
        super().__init__(*endpoints, **options)
        self.layer = layer
        self.sim = layer.sim
        self._listener: Optional["Listener"] = None
        self._established_ev: Any = None
        self._terminated_ev: Any = None
        self._closed_ev: Any = None
        self._readable_waiters: Optional[List[Event]] = None
        self._writable_waiters: Optional[List[Event]] = None

    @property
    def established_event(self) -> Event:
        """Succeeds once ESTABLISHED; fails if the connection dies before."""
        return self._lifecycle_event("_established_ev", "tcp.established")

    @property
    def terminated_event(self) -> Event:
        """The four-way handshake finished (TIME_WAIT counts)."""
        return self._lifecycle_event("_terminated_ev", "tcp.terminated")

    @property
    def closed_event(self) -> Event:
        """The TCB is destroyed (at TIME_WAIT entry for the active closer:
        the layer's linger record is TIME_WAIT from then on)."""
        return self._lifecycle_event("_closed_ev", "tcp.closed")

    def _lifecycle_event(self, field: str, name: str) -> Event:
        """The event in ``field``, built on first ask with the edge it
        already passed (if any)."""
        outcome = getattr(self, field)
        if type(outcome) is Event:
            return outcome
        event = Event(self.sim, name=name)
        if outcome is True:
            event.succeed()
        elif outcome is not None:
            event.fail(outcome)
        setattr(self, field, event)
        return event

    def _pass(self, field: str, error: Optional[BaseException] = None) -> None:
        """A lifecycle edge, unless it already passed: to the event if one
        was asked for, else kept in ``field`` for whoever asks later."""
        event = getattr(self, field)
        if event is None:
            setattr(self, field, True if error is None else error)
        elif type(event) is Event and not event.triggered:
            if error is None:
                event.succeed()
            else:
                event.fail(error)

    def forget(self) -> None:
        """The host rebooted: stop every timer and drop, unfired, every
        event a process waits on, so nothing this block owns resumes or
        keeps it alive."""
        self._cancel_all_timers()
        self._readable_waiters = self._writable_waiters = None
        for field in ("_established_ev", "_terminated_ev", "_closed_ev"):
            event = getattr(self, field)
            if type(event) is Event and not event.triggered:
                setattr(self, field, None)  # not yet passed, and now never

    # ------------------------------------------------------------------
    # entry points: the core's, on this host's clock
    # ------------------------------------------------------------------

    def segment_arrived(self, segment: TcpSegment, src_ip: Ipv4Address) -> None:
        self.arrive(self.sim.now, segment, src_ip)

    def write(self, data: Union[bytes, bytearray, memoryview]) -> int:
        """Accept bytes into the send buffer; returns the count accepted."""
        return self.send(self.sim.now, data)

    def read(self, max_bytes: int) -> bytes:
        """Non-blocking read; empty bytes means no data available now."""
        return self.receive(max_bytes)

    def close(self) -> None:
        """Close the send direction (half-close); receive stays open."""
        self.shutdown(self.sim.now)

    def wait_readable(self) -> Event:
        """Event that fires when data/EOF/reset is available."""
        event = Event(self.sim, name="tcp.readable")
        if self._readable_now():
            event.succeed()
        elif self._readable_waiters is None:
            self._readable_waiters = [event]
        else:
            self._readable_waiters.append(event)
        return event

    def wait_writable(self) -> Event:
        """Event that fires when the send buffer has space (or on error)."""
        event = Event(self.sim, name="tcp.writable")
        if self.send_buffer.free_space > 0 or self.reset_received:
            event.succeed()
        elif self._writable_waiters is None:
            self._writable_waiters = [event]
        else:
            self._writable_waiters.append(event)
        return event

    # ------------------------------------------------------------------
    # the core's three ways out
    # ------------------------------------------------------------------

    def _emit(self, segment: TcpSegment) -> None:
        self.layer.send_segment(segment, self.local_ip, self.remote_ip)

    def _deadline(self, kind: str, delay: Optional[float]) -> Optional[Timer]:
        timer = getattr(self, TIMER_FIELD[kind])
        if timer is not None:
            timer.cancel()
        if delay is None:
            return None
        return self.sim.schedule(delay, self._timer_fired, kind)

    def _timer_fired(self, kind: str) -> None:
        self.expire(self.sim.now, kind)

    def _event(self, name: str, **fields: Any) -> None:
        if name == "readable":  # "readable" / "writable": the per-segment edges
            waiters, self._readable_waiters = self._readable_waiters, None
        elif name == "writable":
            waiters, self._writable_waiters = self._writable_waiters, None
        elif name in _LIFECYCLE:
            _LIFECYCLE[name](self, **fields)
            return
        else:
            self.layer._event(name, **fields)
            return
        if waiters is not None:
            for event in waiters:
                if not event.triggered:
                    event.succeed()

    # -- lifecycle edges ---------------------------------------------------

    def _established(self) -> None:
        self._pass("_established_ev")
        self.layer.connection_established(self)

    def _time_wait(self) -> None:
        self._pass("_terminated_ev")
        # Hand the 4-tuple to the layer's linger table: it answers
        # stragglers and guards same-remote reuse; the block ends next.
        self.layer.retire_to_linger(self)

    def _closed(self, error: Optional[BaseException]) -> None:
        if error is not None:
            self._pass("_established_ev", error=error)
        self._event("readable")
        self._event("writable")
        self._pass("_terminated_ev")
        self._pass("_closed_ev")
        self.layer.deregister(self)


_LIFECYCLE: Dict[str, Callable[..., None]] = {
    "established": TcpConnection._established,
    "time_wait": TcpConnection._time_wait,
    "closed": TcpConnection._closed,
}
