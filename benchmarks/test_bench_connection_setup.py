"""E1 — connection setup time (§9, text table).

Paper: standard TCP median 294 µs / max 603 µs; TCP Failover median
505 µs / max 1193 µs (warm ARP caches).
"""

from benchmarks.conftest import FULL, emit
from repro.harness.experiments import setup_report

PAPER = {
    "standard": {"median_us": 294},
    "failover": {"median_us": 505},
}

TRIALS = 100 if FULL else 60


def test_bench_connection_setup(benchmark):
    report = benchmark.pedantic(setup_report, args=(TRIALS,), rounds=1, iterations=1)
    emit(report)
    results = report.raw
    std, fo = results["standard"], results["failover"]
    # Shape assertions: failover costs more, in the paper's 1.3x-2.5x band.
    ratio = fo.median / std.median
    paper_ratio = PAPER["failover"]["median_us"] / PAPER["standard"]["median_us"]
    assert 1.2 < ratio < 2.5, f"median ratio {ratio:.2f} vs paper {paper_ratio:.2f}"
    assert fo.maximum > fo.median * 1.2  # visible tail, as in the paper
    # Calibration target: the standard baseline lands near the paper.
    assert 0.7 * PAPER["standard"]["median_us"] < std.median * 1e6 < 1.3 * PAPER["standard"]["median_us"]
