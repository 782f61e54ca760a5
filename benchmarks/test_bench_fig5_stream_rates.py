"""E4 — Figure 5: send/receive rates for long data streams.

Paper (100 MB streams):

    |              | standard TCP | TCP Failover |
    | send rate    | 7833.70 KB/s | 5835.80 KB/s |
    | receive rate | 8707.88 KB/s | 3510.03 KB/s |

Shape: standard wins both directions; the failover *receive* direction is
the big loser (~2.5x) because every server byte crosses the shared wire
twice (S→P, then P→C) and is processed twice at the primary, while the
send direction only pays the extra acknowledgement handling (~1.34x).
"""

from benchmarks.conftest import FULL, emit
from repro.harness.experiments import stream_rates_report

PAPER = {
    "standard": {"send": 7833.70, "recv": 8707.88},
    "failover": {"send": 5835.80, "recv": 3510.03},
}

STREAM_BYTES = 100_000_000 if FULL else 8_000_000


def test_bench_fig5_stream_rates(benchmark):
    report = benchmark.pedantic(
        stream_rates_report, args=(STREAM_BYTES,), rounds=1, iterations=1
    )
    emit(report)
    results = report.raw
    std, fo = results["standard"], results["failover"]
    send_ratio = std["send_rate_kb_s"] / fo["send_rate_kb_s"]
    recv_ratio = std["recv_rate_kb_s"] / fo["recv_rate_kb_s"]
    paper_send_ratio = PAPER["standard"]["send"] / PAPER["failover"]["send"]  # 1.34
    paper_recv_ratio = PAPER["standard"]["recv"] / PAPER["failover"]["recv"]  # 2.48
    # Who wins and by roughly what factor.
    assert 1.1 < send_ratio < 1.9, f"send ratio {send_ratio:.2f} (paper {paper_send_ratio:.2f})"
    assert 1.8 < recv_ratio < 3.3, f"recv ratio {recv_ratio:.2f} (paper {paper_recv_ratio:.2f})"
    # The crossover: failover hurts receive more than send.
    assert recv_ratio > send_ratio
    # Calibration: the standard baseline lands near the paper's absolutes.
    assert 0.75 * PAPER["standard"]["send"] < std["send_rate_kb_s"] < 1.25 * PAPER["standard"]["send"]
    assert 0.75 * PAPER["standard"]["recv"] < std["recv_rate_kb_s"] < 1.25 * PAPER["standard"]["recv"]
