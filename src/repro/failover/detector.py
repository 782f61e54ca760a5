"""Heartbeat fault detector (§2: "the system employs a fault detector").

Each server periodically sends a small heartbeat datagram (a
simulation-private IP protocol, so it shares the wire with real traffic)
to its peer and declares the peer failed after ``timeout`` seconds of
silence.  Detection latency is therefore in [timeout, timeout+interval],
and it is the first component of the paper's failover interval ``T``.

Fail-stop only: the paper assumes crash faults, and so do we.

Lifecycle
---------

The detector is re-armable, which replica reintegration depends on:

* :meth:`start` arms the send and check ticks (idempotent while armed);
* :meth:`stop` cancels both tick timers — nothing stays scheduled;
* :meth:`reset` stops and clears ``fired``/``last_heard`` so a later
  :meth:`start` begins from a clean slate instead of firing instantly
  off stale state;
* a tick that observes its own host dead disarms the detector instead
  of silently dying, so a crash never leaks a scheduled callback and a
  restarted host can ``reset()`` + ``start()`` the same object;
* :meth:`detach` additionally unregisters the heartbeat handler, for
  detectors that are being replaced rather than re-armed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.net.addresses import Ipv4Address
from repro.net.packet import IPPROTO_HEARTBEAT, HeartbeatPayload, Ipv4Datagram

if TYPE_CHECKING:
    from repro.net.host import Host


class FaultDetector:
    """Monitors one peer from one host."""

    def __init__(
        self,
        host: "Host",
        peer_ip: Ipv4Address,
        on_failure: Callable[[], None],
        interval: float = 0.010,
        timeout: float = 0.050,
    ):
        if timeout <= interval:
            raise ValueError("timeout must exceed the heartbeat interval")
        self.host = host
        self.sim = host.sim
        self.peer_ip = peer_ip
        self.on_failure = on_failure
        self.interval = interval
        self.timeout = timeout
        self.tracer = host.tracer
        self.last_heard: Optional[float] = None
        self.fired = False
        self.started = False
        self._send_timer = None
        self._check_timer = None
        self._sequence = 0
        self.heartbeats_sent = 0
        self.heartbeats_received = 0
        metrics = getattr(host, "metrics", None)
        if metrics is None:
            from repro.obs.metrics import NULL_METRICS

            metrics = NULL_METRICS
        self._m_sent = metrics.counter("detector.heartbeats_sent", host=host.name)
        self._m_received = metrics.counter("detector.heartbeats_received", host=host.name)
        self._m_fired = metrics.counter("detector.failures", host=host.name)
        host.add_heartbeat_handler(self._heartbeat_received)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Arm the detector.  Idempotent while armed; re-arms after a
        :meth:`stop`.  A detector that has ``fired`` must be :meth:`reset`
        first, or the check tick will do nothing."""
        if self.started:
            return
        self.started = True
        self.last_heard = self.sim.now
        self._send_tick()
        self._check_tick()

    def stop(self) -> None:
        """Disarm: cancel both tick timers.  Idempotent; counters and the
        ``fired`` flag are preserved (see :meth:`reset`)."""
        self.started = False
        for name in ("_send_timer", "_check_timer"):
            timer = getattr(self, name)
            if timer is not None:
                timer.cancel()
                setattr(self, name, None)

    def reset(self) -> None:
        """Stop and clear transient state so the detector can be re-armed
        after its host restarts (or after a firing has been handled)."""
        self.stop()
        self.fired = False
        self.last_heard = None

    def detach(self) -> None:
        """Stop and unregister from the host — for detectors being
        replaced (e.g. by reintegration) rather than re-armed."""
        self.stop()
        remove = getattr(self.host, "remove_heartbeat_handler", None)
        if remove is not None:
            remove(self._heartbeat_received)

    # ------------------------------------------------------------------
    # ticks
    # ------------------------------------------------------------------

    def _send_tick(self) -> None:
        self._send_timer = None
        if not self.host.alive:
            self.stop()  # crash: disarm instead of leaking a dead tick
            return
        self._sequence += 1
        self.heartbeats_sent += 1
        self._m_sent.inc()
        self.host.send_raw_datagram(
            Ipv4Datagram(
                src=self.host.ip.primary_address(),
                dst=self.peer_ip,
                protocol=IPPROTO_HEARTBEAT,
                payload=HeartbeatPayload(sender=self.host.name, sequence=self._sequence),
            )
        )
        self._send_timer = self.sim.schedule(self.interval, self._send_tick)

    def _heartbeat_received(self, datagram: Ipv4Datagram) -> None:
        if datagram.src != self.peer_ip:
            return  # another replica's heartbeat; not our peer
        self.heartbeats_received += 1
        self._m_received.inc()
        self.last_heard = self.sim.now

    def _check_tick(self) -> None:
        self._check_timer = None
        if not self.host.alive:
            self.stop()
            return
        if self.fired:
            return
        if self.last_heard is not None and self.sim.now - self.last_heard > self.timeout:
            self.fired = True
            self._m_fired.inc()
            self.tracer.emit(
                self.sim.now, "detector.failure", self.host.name, peer=self.peer_ip.__str__
            )
            self.on_failure()
            return
        self._check_timer = self.sim.schedule(self.interval, self._check_tick)
