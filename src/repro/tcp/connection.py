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

    #: the listener whose SYN created this connection (set by the layer)
    _listener: Optional["Listener"] = None

    def __init__(self, layer: "TcpLayer", *endpoints: Any, **options: Any) -> None:
        super().__init__(*endpoints, **options)
        self.layer = layer
        self.sim = layer.sim
        self._timers: Dict[str, Timer] = {}  # at most one armed per kind
        self.established_event = Event(self.sim, name="tcp.established")
        # terminated: the four-way handshake finished (TIME_WAIT counts);
        # closed: the TCB is destroyed (at TIME_WAIT entry for the active
        # closer: the layer's linger record is TIME_WAIT from then on).
        self.terminated_event = Event(self.sim, name="tcp.terminated")
        self.closed_event = Event(self.sim, name="tcp.closed")
        # Events handed out by wait_readable / wait_writable, not yet fired.
        self._waiters: Dict[str, List[Event]] = {"readable": [], "writable": []}

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
        else:
            self._waiters["readable"].append(event)
        return event

    def wait_writable(self) -> Event:
        """Event that fires when the send buffer has space (or on error)."""
        event = Event(self.sim, name="tcp.writable")
        if self.send_buffer.free_space > 0 or self.reset_received:
            event.succeed()
        else:
            self._waiters["writable"].append(event)
        return event

    # ------------------------------------------------------------------
    # the core's three ways out
    # ------------------------------------------------------------------

    def _emit(self, segment: TcpSegment) -> None:
        self.layer.send_segment(segment, self.local_ip, self.remote_ip)

    def _deadline(self, kind: str, delay: Optional[float]) -> None:
        timer = self._timers.pop(kind, None)
        if timer is not None:
            timer.cancel()
        if delay is not None:
            self._timers[kind] = self.sim.schedule(delay, self._timer_fired, kind)

    def _timer_fired(self, kind: str) -> None:
        del self._timers[kind]
        self.expire(self.sim.now, kind)

    def _event(self, name: str, **fields: Any) -> None:
        waiters = self._waiters.get(name)
        if waiters is not None:  # "readable" / "writable": the per-segment edges
            for event in waiters:
                if not event.triggered:
                    event.succeed()
            waiters.clear()
        elif name in _LIFECYCLE:
            _LIFECYCLE[name](self, **fields)
        else:
            self.layer._event(name, **fields)

    # -- lifecycle edges ---------------------------------------------------

    def _established(self) -> None:
        if not self.established_event.triggered:
            self.established_event.succeed(self)
        self.layer.connection_established(self)

    def _time_wait(self) -> None:
        if not self.terminated_event.triggered:
            self.terminated_event.succeed()
        # Hand the 4-tuple to the layer's linger table: it answers
        # stragglers and guards same-remote reuse; the block ends next.
        self.layer.retire_to_linger(self)

    def _closed(self, error: Optional[BaseException]) -> None:
        if error is not None and not self.established_event.triggered:
            self.established_event.fail(error)
        self._event("readable")
        self._event("writable")
        if not self.terminated_event.triggered:
            self.terminated_event.succeed()
        self.closed_event.succeed()
        self.layer.deregister(self)


_LIFECYCLE: Dict[str, Callable[..., None]] = {
    "established": TcpConnection._established,
    "time_wait": TcpConnection._time_wait,
    "closed": TcpConnection._closed,
}
