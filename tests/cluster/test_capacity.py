"""Capacity runs: storm survival, attribution, BENCH determinism."""

from repro.cluster import capacity_bench_rows, run_capacity
from repro.obs.bench import validate_bench_doc
from repro.workload.distributions import BoundedPareto

SMALL = dict(
    shards=2,
    clients=2,
    sessions=10,
    ramp=0.1,
    hold_for=0.6,
    storm_at=0.3,
    storm_fraction=0.5,
)


def test_small_capacity_run_survives_storm():
    result = run_capacity(seed=21, **SMALL)
    stats = result.stats
    assert stats.sessions_started == 10
    assert stats.sessions_completed == 10
    assert stats.sessions_failed == 0
    assert stats.corrupt_replies == 0
    assert result.concurrent_at_storm == 10
    assert len(result.killed) == 1
    assert result.misplaced_failures() == []
    assert result.ok, result.checker.report()
    # Every session is attributed to a live backend.
    assert set(result.session_shards) == set(range(10))
    populations = result.shard_populations()
    assert sum(populations.values()) == 10
    # Only the killed shard failed over.
    assert result.fleet.failed_over_shards() == result.killed


def test_latency_windows_partition_the_run():
    result = run_capacity(seed=22, **SMALL)
    windows = result.latency_windows()
    assert set(windows) == {"pre_storm", "during_storm", "post_storm"}
    total = sum(w.count for w in windows.values())
    assert total == len(result.stats.latencies)
    assert windows["pre_storm"].count > 0


def test_bench_rows_validate_and_reproduce():
    rows1 = capacity_bench_rows(run_capacity(seed=23, **SMALL))
    doc = {
        "schema": "repro.bench/v1",
        "name": "cluster_capacity",
        "params": rows1["params"],
        "results": rows1["results"],
        "stats": rows1["stats"],
    }
    assert validate_bench_doc(doc) == []
    rows2 = capacity_bench_rows(run_capacity(seed=23, **SMALL))
    assert rows1 == rows2


def test_different_seeds_differ():
    rows1 = capacity_bench_rows(run_capacity(seed=23, **SMALL))
    rows2 = capacity_bench_rows(run_capacity(seed=24, **SMALL))
    assert rows1 != rows2


def test_heavy_tailed_sizes_stay_intact_through_storm():
    result = run_capacity(
        seed=25,
        reply_sizes=BoundedPareto(alpha=1.3, minimum=64, maximum=60_000),
        **SMALL,
    )
    stats = result.stats
    assert stats.sessions_failed == 0
    assert stats.corrupt_replies == 0
    assert stats.reply_bytes > 0
    assert result.ok, result.checker.report()
