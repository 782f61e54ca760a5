"""Health checking between client-tier components and backends.

The failover plane's :class:`FaultDetector` is one-directional: a
detector both *emits* heartbeats toward its peer and *watches* for the
peer's.  A proxy or DNS health checker therefore needs a detector pair —
one on the watcher (fires ``on_down``) and a beacon on the target (its
callback is a no-op; it exists so the target advertises liveness).  This
module packages that pair so the proxy, VIP and Route 53-style monitors
all check health the same deterministic way.
"""

from __future__ import annotations

from typing import List

from repro.failover.detector import FaultDetector


class HealthMonitor:
    """A watcher→target detector pair with a named ``on_down`` callback."""

    def __init__(
        self,
        watcher,
        target,
        on_down,
        *,
        interval: float = 0.010,
        timeout: float = 0.050,
    ):
        self.watcher = watcher
        self.target = target
        self.fired_at: List[float] = []
        self._on_down = on_down
        watcher_ip = watcher.ip.primary_address()
        target_ip = target.ip.primary_address()
        self.monitor = FaultDetector(
            watcher, target_ip, on_failure=self._fire,
            interval=interval, timeout=timeout,
        )
        self.beacon = FaultDetector(
            target, watcher_ip, on_failure=self._ignore,
            interval=interval, timeout=timeout,
        )

    def start(self) -> None:
        self.monitor.start()
        self.beacon.start()

    def stop(self) -> None:
        self.monitor.stop()
        self.beacon.stop()

    def _fire(self) -> None:
        self.fired_at.append(self.watcher.sim.now)
        self.watcher.tracer.emit(
            self.watcher.sim.now, "clients.health.down", self.watcher.name,
            target=self.target.name,
        )
        self._on_down()

    def _ignore(self) -> None:
        """The beacon watches the watcher only to keep heartbeats flowing."""
