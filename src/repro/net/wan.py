"""Point-to-point WAN link with bandwidth, delay, loss and cross traffic.

Used by the FTP experiment (Fig. 6).  The paper notes that WAN measurements
"are highly dependent on competing traffic and on packet loss rates and,
thus, vary widely" — the on/off cross-traffic process and random loss model
reproduce exactly that variance.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.net.ip import PointToPointInterface
from repro.net.packet import Ipv4Datagram
from repro.sim.engine import Simulator
from repro.sim.rng import fork_rng, seeded_rng
from repro.sim.trace import Tracer

#: Mean length (s) of each on and each off period of the cross traffic.
CROSS_PERIOD_MEAN = 0.5
#: Bottleneck buffer: a datagram arriving behind more than this is dropped.
QUEUE_LIMIT_BYTES = 64 * 1024


class WanDirection:
    """One direction of the link: a FIFO bottleneck queue."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        bandwidth_bps: float,
        propagation_delay: float,
        loss_prob: float,
        rng: random.Random,
        tracer: Tracer,
        cross_load: float = 0.0,
    ):
        self.sim = sim
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.propagation_delay = propagation_delay
        self.loss_prob = loss_prob
        self.rng = rng
        self.tracer = tracer
        self.cross_load = cross_load
        self._busy_until = 0.0
        self._queued_bytes = 0
        self._cross_on = False
        # The on/off cross-traffic process is advanced lazily (only when a
        # packet is transmitted) so an idle link leaves the event queue
        # empty and simulations can run to quiescence.
        self._next_toggle = 0.0
        self._deliver: Optional[Callable[[Ipv4Datagram], None]] = None
        self.packets_sent = 0
        self.packets_lost = 0

    def bind(self, deliver: Callable[[Ipv4Datagram], None]) -> None:
        self._deliver = deliver

    def _advance_cross_state(self) -> None:
        while self.sim.now >= self._next_toggle:
            self._cross_on = not self._cross_on
            self._next_toggle += self.rng.expovariate(1.0 / CROSS_PERIOD_MEAN)

    def _effective_bandwidth(self) -> float:
        if self.cross_load <= 0:
            return self.bandwidth_bps
        self._advance_cross_state()
        if self._cross_on:
            return self.bandwidth_bps * max(0.05, 1.0 - self.cross_load)
        return self.bandwidth_bps

    def send(self, datagram: Ipv4Datagram) -> None:
        if self._deliver is None:
            return
        now = self.sim.now
        if self.rng.random() < self.loss_prob:
            self.packets_lost += 1
            self.tracer.emit(now, "wan.loss", self.name, size=datagram.wire_size)
            return
        backlog = max(0.0, self._busy_until - now)
        if self._queued_bytes > QUEUE_LIMIT_BYTES:
            # Tail drop: bottleneck buffer overflow, as on a congested path.
            self.packets_lost += 1
            self.tracer.emit(now, "wan.tail_drop", self.name, size=datagram.wire_size)
            return
        service_time = datagram.wire_size * 8 / self._effective_bandwidth()
        start = max(now, self._busy_until)
        self._busy_until = start + service_time
        self._queued_bytes += datagram.wire_size
        self.packets_sent += 1
        self.sim.call_at(
            self._busy_until + self.propagation_delay, self._delivered, datagram
        )

    def _delivered(self, datagram: Ipv4Datagram) -> None:
        self._queued_bytes -= datagram.wire_size
        if self._deliver is not None:
            self._deliver(datagram)


class WanLink:
    """Bidirectional WAN pipe joining two point-to-point interfaces."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "wan",
        bandwidth_bps: float = 2e6,
        propagation_delay: float = 0.020,
        loss_prob: float = 0.002,
        cross_load: float = 0.4,
        rng: Optional[random.Random] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.sim = sim
        self.name = name
        tracer = tracer or Tracer(record=False)
        rng = rng or seeded_rng(0)
        # Split the RNG so the two directions decorrelate but stay seeded.
        rng_a = fork_rng(rng)
        rng_b = fork_rng(rng)
        self.a_to_b = WanDirection(
            sim, f"{name}.a2b", bandwidth_bps, propagation_delay, loss_prob,
            rng_a, tracer, cross_load=cross_load,
        )
        self.b_to_a = WanDirection(
            sim, f"{name}.b2a", bandwidth_bps, propagation_delay, loss_prob,
            rng_b, tracer, cross_load=cross_load,
        )

    def connect(
        self,
        side_a: PointToPointInterface,
        side_b: PointToPointInterface,
        deliver_a: Callable[[Ipv4Datagram], None],
        deliver_b: Callable[[Ipv4Datagram], None],
    ) -> None:
        """Wire both interface endpoints to the two directions."""
        side_a.bind_link(self.a_to_b.send)
        side_b.bind_link(self.b_to_a.send)
        self.a_to_b.bind(deliver_b)
        self.b_to_a.bind(deliver_a)
