"""Smoke tests for the experiment runners (small parameters).

The benchmarks regenerate the paper's full tables; these tests only check
that each runner produces sane, correctly-shaped output quickly.
"""

import pytest

from repro.harness import experiments


def test_connection_setup_shape():
    std = experiments.measure_connection_setup(replicated=False, trials=15)
    fo = experiments.measure_connection_setup(replicated=True, trials=15)
    assert std.count == fo.count == 15
    # Failover setup must cost more than standard, but within ~3x.
    assert 1.1 < fo.median / std.median < 3.0
    assert std.maximum >= std.median


def test_send_time_grows_with_size():
    small = experiments.measure_send_time(1024, replicated=False, trials=3)
    large = experiments.measure_send_time(512 * 1024, replicated=False, trials=3)
    assert large.median > large.minimum * 0.5
    assert large.median > small.median * 5


def test_request_reply_failover_slower():
    std = experiments.measure_request_reply(32 * 1024, replicated=False, trials=3)
    fo = experiments.measure_request_reply(32 * 1024, replicated=True, trials=3)
    assert fo.median > std.median


def test_stream_rates_ordering():
    std = experiments.measure_stream_rates(total_bytes=1_500_000, replicated=False)
    fo = experiments.measure_stream_rates(total_bytes=1_500_000, replicated=True)
    # Standard TCP wins both directions; receive suffers most (Fig. 5).
    assert std["send_rate_kb_s"] > fo["send_rate_kb_s"]
    assert std["recv_rate_kb_s"] > fo["recv_rate_kb_s"]
    assert fo["recv_rate_kb_s"] < fo["send_rate_kb_s"]


def test_ftp_rates_smoke():
    result = experiments.measure_ftp_rates(1.3, replicated=True, trials=2)
    assert result["get_kb_s"] > 0
    assert result["put_kb_s"] > 0


def test_failover_runner_reports_intact_stream():
    result = experiments.measure_failover(
        total_bytes=300_000, crash_at=0.040, crash="primary"
    )
    assert result["intact"]
    assert result["stall_s"] > 0


def test_minack_ablation_contrast():
    good = experiments.measure_minack_ablation(ack_merging=True)
    bad = experiments.measure_minack_ablation(ack_merging=False)
    assert good["frame_dropped"] and bad["frame_dropped"]
    assert good["survivor_intact"]
    assert not bad["survivor_intact"]


def test_ablation_rows_fail_by_invariant_name():
    """E7/E8 run checked: the paper's rules hold on both ON rows, and
    each OFF row breaks the invariant of the rule it switched off."""
    raw = experiments.ablation_report().raw
    assert raw["min-ACK"][True]["invariants"] == []
    assert raw["min-window"][True]["invariants"] == []
    assert set(raw["min-ACK"][False]["invariants"]) == {
        "never-ack-unreplicated", "liveness",
    }
    assert set(raw["min-window"][False]["invariants"]) == {"min-window-merge"}
