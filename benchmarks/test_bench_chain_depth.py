"""E9 — extension: cost of daisy-chained replication depth.

The paper mentions daisy-chaining for >2-way replication (§1) without
measuring it.  This benchmark quantifies the throughput cost of each
additional replica for the worst direction (server→client, where 2-way
already pays ~2.4×): every extra link adds one more wire crossing and one
more merge on the shared segment.
"""

from benchmarks.conftest import FULL, emit
from repro.harness.experiments import chain_report

STREAM = 6_000_000 if FULL else 2_500_000
DEPTHS = [1, 2, 3, 4]


def test_bench_chain_depth(benchmark):
    report = benchmark.pedantic(
        chain_report, args=(DEPTHS,), kwargs={"total_bytes": STREAM},
        rounds=1, iterations=1,
    )
    emit(report)
    rates = list(report.raw.items())
    base = rates[0][1]
    # Monotone cost: every extra replica slows the stream further.
    for (_, faster), (_, slower) in zip(rates, rates[1:]):
        assert slower < faster
    # Depth 2 reproduces the Fig. 5 receive penalty (~2.2-2.8x).
    two_way = dict(rates)[2]
    assert 1.8 < base / two_way < 3.3
