"""E12: fleet capacity through a failover storm.

Sweeps shard count and offered load over the sharded fleet, then runs
the flagship acceptance cell — 1000 concurrent closed-loop sessions
across 8 shards, a storm killing 25% of the primaries mid-run — and
asserts the cluster plane's contract: nobody outside the killed shards
notices, the invariant checker stays silent, and the same seed yields a
byte-identical BENCH payload.

Latency windows come from sim-time samples, so every number here is a
pure function of the seed (no wallclock pragmas needed).
"""

import json

from benchmarks.conftest import FULL, emit
from repro.cluster import capacity_bench_rows, run_capacity
from repro.harness.report import Report, Table

# Shard sweep at fixed load; load sweep at fixed shard count.
SHARD_POINTS = (2, 4, 8, 16) if FULL else (2, 4, 8)
SWEEP_SESSIONS = 256 if FULL else 96
LOAD_POINTS = (128, 512, 1000) if FULL else (64, 192, 384)
LOAD_SHARDS = 8

# The acceptance cell runs at full scale regardless of REPRO_FULL: the
# whole point is >= 1000 concurrent connections riding out the storm.
STORM_SESSIONS = 1000
STORM_SHARDS = 8
STORM_CLIENTS = 8
STORM_SEED = 5


def _cell(shards, sessions, seed, clients=4, **overrides):
    result = run_capacity(
        shards=shards, clients=clients, sessions=sessions, seed=seed,
        **overrides,
    )
    assert result.stats.sessions_failed == 0, result.stats.failures
    assert result.stats.corrupt_replies == 0
    assert result.misplaced_failures() == []
    assert result.invariants_ok(), result.checker.report()
    return result


def _row(label, result):
    windows = result.latency_windows()
    return {
        "label": label,
        "metrics": {
            "sessions": result.stats.sessions_started,
            "concurrent_at_storm": result.concurrent_at_storm,
            "connections_per_s": round(result.connections_per_s(), 3),
            "goodput_bytes_per_s": round(result.goodput_bytes_per_s(), 3),
            "pre_p99_ms": round(windows["pre_storm"].p99 * 1e3, 3),
            "during_p99_ms": round(windows["during_storm"].p99 * 1e3, 3),
            "post_p99_ms": round(windows["post_storm"].p99 * 1e3, 3),
            "shards_killed": len(result.killed),
        },
    }


def test_bench_capacity(benchmark):
    def experiment():
        rows = []
        for shards in SHARD_POINTS:
            result = _cell(shards, SWEEP_SESSIONS, seed=40 + shards)
            rows.append((f"shards={shards}", _row(f"shards {shards}", result)))
        for sessions in LOAD_POINTS:
            result = _cell(LOAD_SHARDS, sessions, seed=60 + sessions)
            rows.append(
                (f"sessions={sessions}", _row(f"load {sessions}", result))
            )
        storm = _cell(
            STORM_SHARDS, STORM_SESSIONS, seed=STORM_SEED,
            clients=STORM_CLIENTS, ramp=0.6, hold_for=2.0,
        )
        rows.append(("storm-1000", _row("storm 1000x8", storm)))
        return rows, storm

    (rows, storm) = benchmark.pedantic(experiment, rounds=1, iterations=1)

    # --- the acceptance cell's contract -------------------------------
    assert storm.concurrent_at_storm >= 1000
    assert len(storm.fleet.shards) == 8
    assert len(storm.killed) == 2  # 25% of 8 primaries
    assert storm.fleet.failed_over_shards() == storm.killed
    populations = storm.shard_populations()
    assert sum(populations.values()) == STORM_SESSIONS
    windows = storm.latency_windows()
    # The storm's stall (detection + takeover + client RTO) is visible in
    # the during-window tail, and the fleet settles back down after it.
    assert windows["during_storm"].maximum > windows["pre_storm"].p99
    assert windows["post_storm"].p99 < windows["during_storm"].maximum

    # --- same seed, byte-identical payload ----------------------------
    small = dict(shards=2, clients=2, sessions=12, ramp=0.1, hold_for=0.6,
                 storm_at=0.3, storm_fraction=0.5)
    once = json.dumps(
        capacity_bench_rows(run_capacity(seed=7, **small)), sort_keys=True
    )
    again = json.dumps(
        capacity_bench_rows(run_capacity(seed=7, **small)), sort_keys=True
    )
    assert once == again

    table = Table(
        "E12: capacity sweep + 25% failover storm",
        ["cell", "conns/s", "goodput B/s", "pre p99", "during p99", "post p99"],
        [
            (
                label,
                f"{row['metrics']['connections_per_s']:.1f}",
                f"{row['metrics']['goodput_bytes_per_s']:.0f}",
                f"{row['metrics']['pre_p99_ms']:.2f}ms",
                f"{row['metrics']['during_p99_ms']:.2f}ms",
                f"{row['metrics']['post_p99_ms']:.2f}ms",
            )
            for label, row in rows
        ],
    )
    emit(Report(
        "capacity",
        {
            "sweep_sessions": SWEEP_SESSIONS,
            "storm_sessions": STORM_SESSIONS,
            "storm_shards": STORM_SHARDS,
            "storm_seed": STORM_SEED,
        },
        [row for _label, row in rows],
        stats={label: w.as_dict() for label, w in windows.items()},
        tables=[table],
    ))
