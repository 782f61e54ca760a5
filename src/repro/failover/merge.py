"""ACK and window merging (§3.2, §3.4).

Every segment the primary bridge sends to the client carries

* ``ACK = min(ack_P, ack_S)`` — "choosing the smaller of the two
  acknowledgments guarantees that both servers have successfully received
  all of the client's data up to the sequence number of the forwarded
  acknowledgment" (requirement 2 of §2 — the safety property a failover
  depends on), and
* ``window = min(win_P, win_S)`` — "adapts the client's send rate to the
  slower of the two servers and, thus, reduces the risk of message loss."

The bridge also synthesises an *empty* segment whenever the merged ACK
advances past the last ACK it sent but no payload match exists — this is
both the deadlock prevention of §3.4 and the delayed-ACK forwarding rule.
"""

from __future__ import annotations

from typing import Optional

from repro.tcp.seqnum import seq_gt, seq_min


class AckWindowMerge:
    """Latest ACK/window observed from each replica, plus what was sent.

    ``use_min_ack`` / ``use_min_window`` exist for the ablation benchmark:
    disabling them forwards the primary's own values, which violates
    requirement 2 of §2 and loses data on failover — the ablation
    demonstrates exactly that.
    """

    __slots__ = (
        "use_min_ack", "use_min_window", "ack_p", "ack_s", "win_p", "win_s",
        "last_sent_ack",
    )

    def __init__(self, use_min_ack: bool = True, use_min_window: bool = True) -> None:
        self.use_min_ack = use_min_ack
        self.use_min_window = use_min_window
        self.ack_p: Optional[int] = None
        self.ack_s: Optional[int] = None
        self.win_p: int = 0
        self.win_s: int = 0
        self.last_sent_ack: Optional[int] = None

    def update_from_primary(self, ack: Optional[int], window: int) -> None:
        if ack is not None:
            self.ack_p = ack
        self.win_p = window

    def update_from_secondary(self, ack: Optional[int], window: int) -> None:
        if ack is not None:
            self.ack_s = ack
        self.win_s = window

    @property
    def complete(self) -> bool:
        """Both replicas have acknowledged something."""
        return self.ack_p is not None and self.ack_s is not None

    def merged_ack(self) -> Optional[int]:
        if not self.use_min_ack:
            return self.ack_p if self.ack_p is not None else self.ack_s
        if not self.complete:
            return None
        return seq_min(self.ack_p, self.ack_s)

    def merged_window(self) -> int:
        if not self.use_min_window:
            return self.win_p
        return min(self.win_p, self.win_s)

    def should_send_empty_ack(self) -> bool:
        """§3.4: the merged ACK advanced but there is no payload to carry it."""
        merged = self.merged_ack()
        if merged is None:
            return False
        if self.last_sent_ack is None:
            return True
        return seq_gt(merged, self.last_sent_ack)

    def note_sent(self, ack: Optional[int]) -> None:
        """Record the ACK value of a segment actually sent to the client."""
        if ack is not None:
            self.last_sent_ack = ack

    def __repr__(self) -> str:
        return (
            f"AckWindowMerge(ack_p={self.ack_p}, ack_s={self.ack_s},"
            f" win_p={self.win_p}, win_s={self.win_s},"
            f" last_sent={self.last_sent_ack})"
        )
