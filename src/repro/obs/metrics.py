"""Labelled metrics: counters, gauges and histograms.

The registry is designed around two constraints:

* **Near-zero disabled cost.**  Every instrument holds a reference to
  its registry and checks a single ``enabled`` attribute before doing
  any work.  Hot paths (per-segment, per-event) additionally memoise
  the instrument object at construction time, so the steady-state cost
  of a disabled metric is one attribute load and one branch.
* **No simulation coupling.**  Instruments never read the clock or
  schedule events; they are pure accumulators that the flight recorder
  and CLI snapshot after (or during) a run.

Names are dotted (``bridge.segments_merged``); labels are free-form
keyword pairs (``host="pbridge"``, ``queue="P"``).  ``(name, labels)``
identifies an instrument: asking the registry twice returns the same
object, so layers can share counters without plumbing references.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Tuple

LabelKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _label_key(name: str, labels: Dict[str, object]) -> LabelKey:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_key(key: LabelKey) -> str:
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing accumulator."""

    __slots__ = ("_registry", "key", "value")

    def __init__(self, registry: "MetricsRegistry", key: LabelKey):
        self._registry = registry
        self.key = key
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if self._registry.enabled:
            self.value += amount

    def __repr__(self) -> str:
        return f"Counter({_render_key(self.key)}={self.value})"


class Gauge:
    """A point-in-time value with set/add/high-watermark updates."""

    __slots__ = ("_registry", "key", "value", "high_watermark")

    def __init__(self, registry: "MetricsRegistry", key: LabelKey):
        self._registry = registry
        self.key = key
        self.value = 0.0
        self.high_watermark = 0.0

    def set(self, value: float) -> None:
        if self._registry.enabled:
            self.value = value
            if value > self.high_watermark:
                self.high_watermark = value

    def add(self, delta: float) -> None:
        if self._registry.enabled:
            self.value += delta
            if self.value > self.high_watermark:
                self.high_watermark = self.value

    def __repr__(self) -> str:
        return f"Gauge({_render_key(self.key)}={self.value})"


class Histogram:
    """A sample accumulator summarised as count/mean/p50/p90/p99/max.

    Samples are kept in full up to ``max_samples`` (default 100k); past
    that the list is decimated by keeping every other sample, which
    bounds memory while keeping the distribution representative for the
    long steady-state runs the chaos matrix produces.
    """

    __slots__ = ("_registry", "key", "samples", "count", "total", "max_samples")

    def __init__(
        self, registry: "MetricsRegistry", key: LabelKey, max_samples: int = 100_000
    ):
        self._registry = registry
        self.key = key
        self.samples: List[float] = []
        self.count = 0
        self.total = 0.0
        self.max_samples = max_samples

    def observe(self, value: float) -> None:
        if not self._registry.enabled:
            return
        self.count += 1
        self.total += value
        self.samples.append(value)
        if len(self.samples) > self.max_samples:
            del self.samples[::2]

    def summary(self) -> Dict[str, float]:
        if not self.samples:
            return {"count": self.count, "mean": 0.0, "p50": 0.0,
                    "p90": 0.0, "p99": 0.0, "max": 0.0}
        ordered = sorted(self.samples)
        return {
            "count": self.count,
            "mean": self.total / self.count,
            "p50": percentile(ordered, 0.50),
            "p90": percentile(ordered, 0.90),
            "p99": percentile(ordered, 0.99),
            "max": ordered[-1],
        }

    def __repr__(self) -> str:
        return f"Histogram({_render_key(self.key)}, n={self.count})"


def percentile(ordered: List[float], fraction: float) -> float:
    """Linear-interpolation percentile over an already-sorted list."""
    if not ordered:
        raise ValueError("percentile of empty list")
    if len(ordered) == 1:
        return ordered[0]
    rank = fraction * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = min(low + 1, len(ordered) - 1)
    weight = rank - low
    value = ordered[low] * (1.0 - weight) + ordered[high] * weight
    # Rounding may carry the blend an ulp outside its bracket (two equal
    # neighbours near 1e6 do); a quantile never exceeds the samples around it.
    return min(max(value, ordered[low]), ordered[high])


def stddev(samples: List[float]) -> float:
    """Population standard deviation (0.0 for fewer than two samples)."""
    n = len(samples)
    if n < 2:
        return 0.0
    mean = sum(samples) / n
    return math.sqrt(sum((s - mean) ** 2 for s in samples) / n)


class MetricsRegistry:
    """Factory and store for labelled instruments.

    Construct with ``enabled=False`` (or use the shared
    :data:`NULL_METRICS`) to get a registry whose instruments are inert:
    they can be created, threaded through constructors and called on hot
    paths, and every update is a single branch that falls through.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._instruments: Dict[LabelKey, object] = {}

    def _get(self, cls, name: str, labels: Dict[str, object]):
        key = _label_key(name, labels)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(self, key)
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"metric {_render_key(key)} already registered as "
                f"{type(instrument).__name__}, not {cls.__name__}"
            )
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, labels)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def __iter__(self) -> Iterator[object]:
        return iter(self._instruments.values())

    def snapshot(self) -> Dict[str, object]:
        """All instruments as plain values, keyed by rendered name."""
        out: Dict[str, object] = {}
        for key, instrument in sorted(self._instruments.items()):
            rendered = _render_key(key)
            if isinstance(instrument, Histogram):
                out[rendered] = instrument.summary()
            else:
                out[rendered] = instrument.value
        return out

    def render(self, include_zero: bool = False) -> str:
        """Human-readable one-line-per-instrument dump."""
        lines = []
        for name, value in self.snapshot().items():
            if isinstance(value, dict):
                if value["count"] == 0 and not include_zero:
                    continue
                body = " ".join(
                    f"{k}={value[k]:.6g}" for k in ("count", "mean", "p50", "p90", "p99", "max")
                )
                lines.append(f"{name}: {body}")
            else:
                if not value and not include_zero:
                    continue
                lines.append(f"{name}: {value:.6g}" if isinstance(value, float) else f"{name}: {value}")
        return "\n".join(lines)


def merge_registries(
    sources: Dict[str, "MetricsRegistry"], label: str = "shard"
) -> "MetricsRegistry":
    """Fleet rollup: fold per-source registries into one labelled registry.

    Each instrument from source ``s`` reappears in the result with an
    added ``label=s`` label (so per-shard series stay distinguishable),
    **plus** an aggregate instrument carrying ``label=all`` that sums
    counters, sums gauge values (high watermark = max of sources — the
    fleet never held more than the sum, and per-shard peaks are
    preserved in the labelled series), and pools histogram samples so
    fleet-level percentiles come from the union distribution.

    ``sources`` maps a source name (e.g. ``"shard3"``) to its registry.
    Insertion order of ``sources`` does not affect the result's
    :meth:`~MetricsRegistry.snapshot`, which sorts by rendered key.
    """
    merged = MetricsRegistry(enabled=True)

    def _labelled(key: LabelKey, value: str) -> Dict[str, object]:
        labels: Dict[str, object] = dict(key[1])
        labels[label] = value
        return labels

    for source_name, registry in sources.items():
        for key, instrument in registry._instruments.items():
            name = key[0]
            if isinstance(instrument, Counter):
                merged.counter(name, **_labelled(key, source_name)).inc(
                    instrument.value
                )
                merged.counter(name, **_labelled(key, "all")).inc(instrument.value)
            elif isinstance(instrument, Gauge):
                tagged = merged.gauge(name, **_labelled(key, source_name))
                tagged.value = instrument.value
                tagged.high_watermark = instrument.high_watermark
                total = merged.gauge(name, **_labelled(key, "all"))
                total.value += instrument.value
                if instrument.high_watermark > total.high_watermark:
                    total.high_watermark = instrument.high_watermark
            elif isinstance(instrument, Histogram):
                tagged = merged.histogram(name, **_labelled(key, source_name))
                pooled = merged.histogram(name, **_labelled(key, "all"))
                for hist in (tagged, pooled):
                    hist.samples.extend(instrument.samples)
                    hist.count += instrument.count
                    hist.total += instrument.total
    return merged


#: Shared disabled registry — the default wired through constructors so
#: instrumented code never needs a None check.
NULL_METRICS = MetricsRegistry(enabled=False)
