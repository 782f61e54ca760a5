"""Network interface card.

A NIC filters received frames by destination MAC unless promiscuous mode is
enabled — promiscuous mode is how the paper's secondary server snoops every
client datagram addressed to the primary (§3.1), and disabling it is step 2
of the primary-failure procedure (§5).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.addresses import MacAddress
from repro.net.ethernet import EthernetSegment
from repro.net.packet import EthernetFrame


class Nic:
    """One attachment point on an Ethernet segment."""

    def __init__(self, mac: MacAddress, name: str = ""):
        self.mac = mac
        self.name = name or f"nic-{mac}"
        self.segment: Optional[EthernetSegment] = None
        self.promiscuous = False
        self.up = True
        self._receiver: Optional[Callable[[EthernetFrame], None]] = None
        # FaultPlane.tap_nic: True when the plane consumed the frame (it
        # may re-inject delayed/duplicated/corrupted copies via frame_arrived).
        self.rx_fault_filter: Optional[Callable[[EthernetFrame], bool]] = None
        self.frames_sent = 0
        self.frames_received = 0
        self.frames_snooped = 0

    def attach(self, segment: EthernetSegment) -> None:
        if self.segment is not None:
            raise RuntimeError(f"{self.name} already attached")
        self.segment = segment
        segment.attach(self)

    def detach(self) -> None:
        if self.segment is not None:
            self.segment.detach(self)
            self.segment = None

    def set_receiver(self, receiver: Callable[[EthernetFrame], None]) -> None:
        """Install the host-side handler for accepted frames."""
        self._receiver = receiver

    def set_promiscuous(self, enabled: bool) -> None:
        self.promiscuous = enabled

    def send(self, frame: EthernetFrame) -> None:
        """Put a frame on the wire.  Silently drops if down or detached."""
        if not self.up or self.segment is None:
            return
        self.frames_sent += 1
        self.segment.submit(self, frame)

    def frame_arrived(self, frame: EthernetFrame) -> None:
        """Called by the segment for every frame on the medium."""
        if not self.up or self._receiver is None:
            return
        if self.rx_fault_filter is not None and self.rx_fault_filter(frame):
            return
        addressed_to_us = frame.dst == self.mac or frame.dst.is_broadcast
        if addressed_to_us:
            self.frames_received += 1
            self._receiver(frame)
        elif self.promiscuous:
            self.frames_snooped += 1
            self._receiver(frame)

    def __repr__(self) -> str:
        mode = "promisc" if self.promiscuous else "normal"
        state = "up" if self.up else "down"
        return f"Nic({self.name}, {self.mac}, {mode}, {state})"
