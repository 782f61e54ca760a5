"""Property tests for the metrics plane's distribution summaries.

Two laws the dashboards and BENCH artifacts lean on:

* **quantile monotonicity** — for any sample, p50 ≤ p90 ≤ p99 ≤ max
  (and min ≤ p50), including after the histogram's every-other-sample
  decimation kicks in;
* **merge = concat** — folding per-shard registries through
  :func:`merge_registries` yields the same ``all`` distribution as one
  histogram that observed every sample directly, so fleet-level
  percentiles are real percentiles, not averages of averages.
"""

import math

from hypothesis import example, given
from hypothesis import strategies as st

from repro.harness.metrics import summarize
from repro.obs.metrics import MetricsRegistry, merge_registries

#: Finite, sane-magnitude floats: latencies/sizes, not denormal noise.
SAMPLES = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=200,
)


def _observe_all(values, max_samples: int = 100_000):
    registry = MetricsRegistry()
    hist = registry.histogram("latency", max_samples=max_samples)
    for value in values:
        hist.observe(value)
    return hist


@given(SAMPLES)
def test_histogram_quantiles_are_monotone(values):
    summary = _observe_all(values).summary()
    assert summary["count"] == len(values)
    assert min(values) <= summary["p50"] <= summary["p90"]
    assert summary["p90"] <= summary["p99"] <= summary["max"]
    assert summary["max"] == max(values)


@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=20, max_size=200))
# Found by hypothesis: blending two equal neighbours rounded p99 above max.
@example([0.0] * 22 + [999999.9999999999] * 2)
def test_histogram_quantiles_survive_decimation(values):
    # A tiny max_samples forces repeated every-other-sample decimation;
    # the summary must stay ordered and bounded by the true extremes.
    summary = _observe_all(values, max_samples=8).summary()
    assert summary["count"] == len(values)
    assert summary["p50"] <= summary["p90"] <= summary["p99"] <= summary["max"]
    assert min(values) <= summary["p50"]
    assert summary["max"] <= max(values)


@given(SAMPLES)
# two equal neighbours whose p90 blend rounds one ulp above them
@example([0.0, 448776.0840374976, 448776.0840374976])
def test_stats_quantiles_are_monotone(values):
    stats = summarize(values)
    assert stats.minimum <= stats.median <= stats.p90
    assert stats.p90 <= stats.p99 <= stats.maximum
    assert stats.minimum <= stats.mean <= stats.maximum


@given(st.lists(SAMPLES, min_size=1, max_size=5))
def test_merge_registries_equals_concat(shards):
    sources = {}
    for index, values in enumerate(shards):
        registry = MetricsRegistry()
        hist = registry.histogram("latency")
        for value in values:
            hist.observe(value)
        sources[f"shard{index}"] = registry

    merged = merge_registries(sources, label="shard")
    pooled = merged.histogram("latency", shard="all").summary()

    concat = [v for values in shards for v in values]
    direct = _observe_all(concat).summary()

    assert pooled["count"] == direct["count"] == len(concat)
    # Percentiles come from sorting the pooled samples — exact equality.
    for quantile in ("p50", "p90", "p99", "max"):
        assert pooled[quantile] == direct[quantile]
    # Totals are accumulated in a different order; allow fp slack.
    assert math.isclose(pooled["mean"], direct["mean"], rel_tol=1e-12)


@given(st.lists(SAMPLES, min_size=1, max_size=4))
def test_merge_keeps_per_source_series(shards):
    sources = {}
    for index, values in enumerate(shards):
        registry = MetricsRegistry()
        hist = registry.histogram("latency")
        for value in values:
            hist.observe(value)
        sources[f"shard{index}"] = registry

    merged = merge_registries(sources, label="shard")
    for index, values in enumerate(shards):
        tagged = merged.histogram("latency", shard=f"shard{index}").summary()
        assert tagged["count"] == len(values)
        assert tagged["max"] == max(values)
