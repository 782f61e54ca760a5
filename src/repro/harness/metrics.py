"""Simple statistics over experiment trials."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

from repro.obs.metrics import percentile, stddev


@dataclass(frozen=True)
class Stats:
    """Summary of a sample of measurements."""

    count: int
    median: float
    mean: float
    minimum: float
    maximum: float
    p90: float
    p99: float = 0.0
    stddev: float = 0.0

    def scaled(self, factor: float) -> "Stats":
        return Stats(
            count=self.count,
            median=self.median * factor,
            mean=self.mean * factor,
            minimum=self.minimum * factor,
            maximum=self.maximum * factor,
            p90=self.p90 * factor,
            p99=self.p99 * factor,
            stddev=self.stddev * factor,
        )

    def as_dict(self) -> Dict[str, float]:
        """Plain-number dump for ``BENCH_*.json`` artifacts."""
        return {
            "count": self.count,
            "median": self.median,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p90": self.p90,
            "p99": self.p99,
            "stddev": self.stddev,
        }


def summarize(samples: Iterable[float]) -> Stats:
    """Median/mean/min/max/p90/p99/stddev of a sample."""
    ordered: List[float] = sorted(samples)
    if not ordered:
        raise ValueError("empty sample")
    return Stats(
        count=len(ordered),
        median=percentile(ordered, 0.5),
        mean=sum(ordered) / len(ordered),
        minimum=ordered[0],
        maximum=ordered[-1],
        p90=percentile(ordered, 0.9),
        p99=percentile(ordered, 0.99),
        stddev=stddev(ordered),
    )


#: An all-zero summary for a window no request completed in (e.g. a run
#: short enough that every session finished inside the recovery window).
EMPTY_STATS = Stats(count=0, median=0.0, mean=0.0, minimum=0.0, maximum=0.0,
                    p90=0.0, p99=0.0, stddev=0.0)


def latency_windows(
    stats, event_at: float, window: float, finished_at: float,
    labels: Sequence[str],
) -> Dict[str, Stats]:
    """Request-latency summaries before / during / after a disruption.

    ``stats.latencies_between(start, end)`` yields the samples; the
    "during" window is ``window`` seconds from ``event_at``; ``labels``
    names the three windows (artifacts keep their per-plane keys).
    """
    edges = (0.0, event_at, event_at + window, finished_at + 1.0)
    windows = {}
    for label, start, end in zip(labels, edges, edges[1:]):
        samples = stats.latencies_between(start, end)
        windows[label] = summarize(samples) if samples else EMPTY_STATS
    return windows


def rate_kb_s(byte_count: int, seconds: float) -> float:
    """Transfer rate in KB/s (the paper's unit: 1 KB = 1024 bytes)."""
    if seconds <= 0:
        raise ValueError("non-positive duration")
    return byte_count / 1024.0 / seconds
