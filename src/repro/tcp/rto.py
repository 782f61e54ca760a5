"""Retransmission-timeout estimation (Jacobson/Karn, RFC 6298 shape).

Period-correct behaviour matters for the failover experiments: after the
primary fails, every segment lost during the ARP window ``T`` is recovered
by ordinary retransmission, so the client-observed stall is governed by
this estimator.
"""

from __future__ import annotations

from typing import Optional


class RtoEstimator:
    """Smoothed RTT estimator with exponential backoff."""

    __slots__ = (
        "initial_rto", "min_rto", "max_rto", "alpha", "beta", "k",
        "srtt", "rttvar", "_backoff", "samples_taken",
    )

    def __init__(
        self,
        initial_rto: float = 1.0,
        min_rto: float = 0.2,
        max_rto: float = 60.0,
        alpha: float = 0.125,
        beta: float = 0.25,
        k: float = 4.0,
    ):
        self.initial_rto = initial_rto
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.alpha = alpha
        self.beta = beta
        self.k = k
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self._backoff = 1
        self.samples_taken = 0

    def add_sample(self, rtt: float) -> None:
        """Record an RTT measurement from a non-retransmitted segment.

        Karn's rule — never sampling retransmitted segments — is enforced by
        the caller (:class:`repro.tcp.connection.TcpConnection` only probes
        segments sent exactly once).
        """
        if rtt < 0:
            raise ValueError("negative RTT sample")
        self.samples_taken += 1
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2
        else:
            self.rttvar = (1 - self.beta) * self.rttvar + self.beta * abs(self.srtt - rtt)
            self.srtt = (1 - self.alpha) * self.srtt + self.alpha * rtt
        self._backoff = 1

    def on_timeout(self) -> None:
        """Exponential backoff after a retransmission timeout."""
        self._backoff = min(self._backoff * 2, 64)

    @property
    def backoff(self) -> int:
        return self._backoff

    @property
    def rto(self) -> float:
        if self.srtt is None:
            base = self.initial_rto
        else:
            base = self.srtt + self.k * (self.rttvar or 0.0)
        base = max(self.min_rto, min(self.max_rto, base))
        return min(self.max_rto, base * self._backoff)
