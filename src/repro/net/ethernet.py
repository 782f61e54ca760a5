"""Shared-medium Ethernet segment.

The paper's testbed is 100 Mbit/s Ethernet on a shared collision domain —
two of its results depend on that:

* the secondary server snoops the client's traffic in promiscuous mode,
  which requires every frame to reach every station (bus semantics);
* Figure 4's non-linearity is attributed to "collisions on the Ethernet"
  between acknowledgements and data frames.

The model is a serialised CSMA bus: stations defer while the medium is
busy, transmissions are FIFO in submission order (deterministic), and when
a station submits while the medium is contended the transmission suffers a
collision with configurable probability, costing a jam slot plus a random
exponential-ish backoff.  This is intentionally simpler than bit-level
CSMA/CD but creates the same macroscopic effect.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.net.packet import EthernetFrame
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.spans import NULL_SPANS, SpanTracer, flow_key
from repro.sim.engine import Simulator
from repro.sim.rng import seeded_rng
from repro.sim.trace import Tracer

if TYPE_CHECKING:
    from repro.net.nic import Nic


class EthernetSegment:
    """One collision domain connecting any number of NICs."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "eth0",
        bandwidth_bps: float = 100e6,
        propagation_delay: float = 1e-6,
        collision_prob: float = 0.05,
        tracer: Optional[Tracer] = None,
        rng: Optional[random.Random] = None,
        metrics: Optional[MetricsRegistry] = None,
        spans: Optional[SpanTracer] = None,
    ):
        self.sim = sim
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.propagation_delay = propagation_delay
        self.collision_prob = collision_prob
        self.tracer = tracer or Tracer(record=False)
        self.spans = spans or NULL_SPANS
        self.rng = rng or seeded_rng(0)
        metrics = metrics or NULL_METRICS
        self._m_frames = metrics.counter("eth.frames", segment=name)
        self._m_bytes = metrics.counter("eth.bytes", segment=name)
        self._m_collisions = metrics.counter("eth.collisions", segment=name)
        self._nics: List["Nic"] = []
        self._pending = 0
        self.frames_delivered = 0
        self.collisions = 0
        # Fault-injection tap (see repro.net.faults.FaultPlane.tap_segment):
        # called as fault_filter(frame, deliver) once the frame's wire time
        # is known; returning True means the plane owns delivery.
        self.fault_filter: Optional[Callable[[EthernetFrame, Callable], bool]] = None
        # 100 Mbit/s constants, scaled if bandwidth differs.
        self._bit_time = 1.0 / bandwidth_bps
        self.interframe_gap = 96 * self._bit_time
        self.slot_time = 512 * self._bit_time
        # Idle medium: the gap has already elapsed before the first frame.
        self._busy_until = -self.interframe_gap

    def attach(self, nic: "Nic") -> None:
        if nic in self._nics:
            raise ValueError(f"NIC {nic.mac} already attached to {self.name}")
        self._nics.append(nic)

    def detach(self, nic: "Nic") -> None:
        if nic in self._nics:
            self._nics.remove(nic)

    def submit(self, sender: "Nic", frame: EthernetFrame) -> None:
        """Transmit ``frame`` from ``sender``, deferring while busy."""
        now = self.sim.now
        earliest = max(now, self._busy_until + self.interframe_gap)
        contended = self._pending > 0 or self._busy_until > now
        delay_extra = 0.0
        if contended and self.rng.random() < self.collision_prob:
            self.collisions += 1
            self._m_collisions.inc()
            backoff_slots = self.rng.uniform(1.0, 8.0)
            delay_extra = self.slot_time * (1.0 + backoff_slots)
            self.tracer.emit(
                now, "eth.collision", self.name, sender=sender.mac.__str__
            )
        start = earliest + delay_extra
        # The frame's size is worked out once per hop and rides along to
        # delivery (frames are immutable).
        size = frame.wire_size
        tx_time = size * 8 * self._bit_time
        self._busy_until = start + tx_time
        self._pending += 1
        deliver_at = start + tx_time + self.propagation_delay
        if self.spans.enabled:
            # Both ends of the hop are known now; record it complete.
            # Duck-typed so this module stays TCP-import-free: a TCP
            # datagram's payload carries the port pair we key traces by.
            datagram = frame.payload
            seg = getattr(datagram, "payload", None)
            if seg is not None and hasattr(seg, "src_port"):
                self.spans.flow_record_span(
                    flow_key(datagram.src, seg.src_port,
                             datagram.dst, seg.dst_port),
                    "eth.hop", start, deliver_at, self.name,
                    size=size,
                    collided=delay_extra > 0.0,
                )
        if self.fault_filter is not None:

            def deliver(extra_delay: float, copy: EthernetFrame) -> None:
                self.sim.call_at(
                    max(self.sim.now, deliver_at + extra_delay),
                    self._deliver_copy,
                    copy,
                )

            if self.fault_filter(frame, deliver):
                # The plane owns delivery; the medium still frees on time.
                self.sim.call_at(deliver_at, self._release_medium)
                return
        self.sim.call_at(deliver_at, self._deliver, sender, frame, size)

    def _release_medium(self) -> None:
        self._pending -= 1

    def _deliver(self, sender: "Nic", frame: EthernetFrame, size: int) -> None:
        self._release_medium()
        self._fan_out(frame, sender, size)

    def _deliver_copy(self, frame: EthernetFrame) -> None:
        """Fault-injected delivery: the sender is identified by MAC."""
        self._fan_out(frame, None, frame.wire_size)

    def _fan_out(self, frame: EthernetFrame, exclude: Optional["Nic"], size: int) -> None:
        self.frames_delivered += 1
        self._m_frames.inc()
        self._m_bytes.inc(size)
        # The frame object rides along in the detail so the pcap exporter
        # and flight recorder can reconstruct the wire (frames are frozen
        # dataclasses — recording aliases, never copies).
        self.tracer.emit(
            self.sim.now,
            "eth.rx",
            self.name,
            src=frame.src.__str__,
            dst=frame.dst.__str__,
            size=size,
            frame=frame,
        )
        # Bus semantics: every station other than the sender sees the frame.
        for nic in list(self._nics):
            if nic is exclude or nic.mac == frame.src:
                continue
            nic.frame_arrived(frame)

    def utilization_window(self) -> float:
        """Seconds of queued transmission still ahead of the current time."""
        return max(0.0, self._busy_until - self.sim.now)
