"""E6 — failover timeline (extension of the §5 analysis; no paper table).

The paper analyses the failover interval qualitatively: detection, IP
takeover, the router-ARP window ``T`` and TCP retransmission recovery.
This benchmark quantifies the client-visible stall as a function of the
detector timeout and the ARP-update latency, and verifies the stream is
byte-identical in every configuration.
"""

from benchmarks.conftest import FULL, emit
from repro.harness.experiments import failover_report

DETECTOR_TIMEOUTS = [0.020, 0.050, 0.200, 0.500] if FULL else [0.020, 0.200, 0.500]
ARP_DELAYS = [0.2e-3, 2e-3, 20e-3] if FULL else [0.2e-3, 20e-3]
STREAM = 1_500_000 if FULL else 800_000


def run_sweep():
    return failover_report(
        STREAM, DETECTOR_TIMEOUTS, ARP_DELAYS, crash_at=0.060, seed=9,
    )


def test_bench_failover_time(benchmark):
    report = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    emit(report)
    assert all(result["intact"] for _, _, result in report.raw)
    rows = [(knob, value, result["stall_s"]) for knob, value, result in report.raw]
    detector_rows = [(v, s) for k, v, s in rows if k == "detector"]
    # A slower detector means a longer stall once it dominates the RTO.
    assert detector_rows[-1][1] > detector_rows[0][1]
    # With a fast detector the stall is bounded by retransmission timing:
    # well under a second for every configuration here.
    fast = detector_rows[0][1]
    assert fast < 0.5
    # Secondary failure is cheaper than primary failure (no ARP window).
    secondary_stall = [s for k, _, s in rows if k == "secondary crash"][0]
    assert secondary_stall <= detector_rows[0][1] + 0.25
