"""E2 — Figure 3: client-to-server send time vs message size.

Paper: median send() time for 64 B – 1 MB messages, standard TCP vs TCP
Failover.  Two properties define the figure's shape:

* messages up to ~32 KB are flattened by the 64 KB send buffer ("the send
  call returns when the application has passed the last byte to the
  stack");
* beyond the buffer the time grows linearly with size, with the failover
  curve above the standard one.
"""

from benchmarks.conftest import FULL, emit, fig_sizes
from repro.harness.experiments import FIG3_SIZES, send_time_report

SIZES = fig_sizes(
    FIG3_SIZES,
    [64, 1024, 8 * 1024, 32 * 1024, 128 * 1024, 512 * 1024, 1024 * 1024],
)
TRIALS = 9 if FULL else 5


def test_bench_fig3_send_time(benchmark):
    report = benchmark.pedantic(
        send_time_report, args=(SIZES, TRIALS), rounds=1, iterations=1
    )
    emit(report)
    std, fo = report.raw["standard"], report.raw["failover"]

    def med(d, size):
        return d[size].median

    small, buffered, large = 64, 32 * 1024, 1024 * 1024
    # Send-buffer flattening: 32 KB costs nowhere near 512x the 64 B time.
    assert med(std, buffered) < med(std, small) * 40
    # Beyond the buffer the growth is roughly linear (1 MB ~ 2x 512 KB).
    half = 512 * 1024
    assert 1.5 < med(std, large) / med(std, half) < 3.0
    # Failover sits above standard for large messages.
    assert med(fo, large) > med(std, large)
