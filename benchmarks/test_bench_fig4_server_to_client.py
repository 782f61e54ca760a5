"""E3 — Figure 4: server-to-client transfer time vs reply size.

Paper: client sends a 4-byte request; the figure plots the time until the
client has received the last byte of the reply (64 B – 1 MB), standard TCP
vs TCP Failover.  Shape: failover above standard everywhere, the gap
widening with size (every server byte crosses the shared wire twice); the
standard curve shows collision-induced non-linearity.
"""

from benchmarks.conftest import FULL, emit, fig_sizes
from repro.harness.experiments import FIG4_SIZES, request_reply_report

SIZES = fig_sizes(
    FIG4_SIZES,
    [64, 1024, 8 * 1024, 64 * 1024, 256 * 1024, 1024 * 1024],
)
TRIALS = 9 if FULL else 5


def test_bench_fig4_server_to_client(benchmark):
    report = benchmark.pedantic(
        request_reply_report, args=(SIZES, TRIALS), rounds=1, iterations=1
    )
    emit(report)
    std, fo = report.raw["standard"], report.raw["failover"]
    large = 1024 * 1024
    # Failover above standard at every size.
    for size in SIZES:
        assert fo[size].median >= std[size].median * 0.95
    # The large-transfer gap approaches the Fig. 5 rate ratio (~2-3x).
    ratio = fo[large].median / std[large].median
    assert 1.6 < ratio < 3.5, f"1MB ratio {ratio:.2f}"
