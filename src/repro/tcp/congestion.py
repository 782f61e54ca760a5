"""Congestion control: slow start, congestion avoidance, fast retransmit.

A Reno-shaped controller, period-appropriate for the paper's FreeBSD 4.4
stack.  On the LAN experiments the window opens almost immediately and the
send rate is CPU/wire-bound; on the WAN FTP experiment (Fig. 6) slow start
and loss recovery dominate the small-file transfer rates, which is exactly
the effect the paper's numbers show.
"""

from __future__ import annotations


class CongestionControl:
    """Per-connection congestion state."""

    __slots__ = ("mss", "cwnd", "ssthresh", "dup_acks", "fast_retransmits", "timeouts")

    DUP_ACK_THRESHOLD = 3
    INITIAL_WINDOW_SEGMENTS = 2

    def __init__(self, mss: int):
        self.mss = mss
        self.cwnd = self.INITIAL_WINDOW_SEGMENTS * mss
        self.ssthresh = 64 * 1024
        self.dup_acks = 0
        self.fast_retransmits = 0
        self.timeouts = 0

    @property
    def in_slow_start(self) -> bool:
        return self.cwnd < self.ssthresh

    def window(self, peer_window: int) -> int:
        """Usable send window given the peer's advertised window."""
        return min(self.cwnd, peer_window)

    def on_new_ack(self, acked_bytes: int) -> None:
        """Acknowledgement of new data: grow cwnd."""
        self.dup_acks = 0
        if self.in_slow_start:
            self.cwnd += min(acked_bytes, self.mss)
        else:
            # Congestion avoidance: about one MSS per RTT.
            self.cwnd += max(1, self.mss * self.mss // self.cwnd)

    def on_duplicate_ack(self, in_flight: int) -> bool:
        """Count a duplicate ACK; True when fast retransmit should fire."""
        self.dup_acks += 1
        if self.dup_acks == self.DUP_ACK_THRESHOLD:
            self.fast_retransmits += 1
            self.ssthresh = max(in_flight // 2, 2 * self.mss)
            self.cwnd = self.ssthresh
            return True
        return False

    def on_timeout(self, in_flight: int) -> None:
        """Retransmission timeout: collapse to one segment."""
        self.timeouts += 1
        self.ssthresh = max(in_flight // 2, 2 * self.mss)
        self.cwnd = self.mss
        self.dup_acks = 0
