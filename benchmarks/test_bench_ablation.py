"""E7 / E8 — ablations: the two merge rules of §3, each switched off.

E7 — min-ACK merging vs forwarding the primary's own ACK.

DESIGN.md calls out requirement 2 of §2 ("the primary server must not
acknowledge a client's TCP segment until it has received an acknowledgment
of that segment from the secondary server") as the safety property the
whole design rests on.  This ablation disables the min-ACK merge and shows
the paper's rule is not an optimisation but a correctness requirement:
without it, a single snoop loss at the secondary plus a primary crash
loses acknowledged client data.

E8 — min-window merging vs advertising the primary's window.

§3.2: "choosing the smaller of the two window sizes adapts the client's
send rate to the slower of the two servers and, thus, reduces the risk of
message loss."  With a slow secondary (small receive buffer, paced
consumer), disabling the merge lets the client overrun the secondary —
visible as trimmed bytes and retransmission stalls.  Unlike the min-ACK
rule this one is a performance property, not a safety property: the
stream still completes, just worse.
"""

from benchmarks.conftest import emit
from repro.harness.experiments import ablation_report


def test_bench_ablation(benchmark):
    report = benchmark.pedantic(ablation_report, rounds=1, iterations=1)
    emit(report)

    # E7: one snoop loss at S, then P crashes.
    good = report.raw["min-ACK"][True]
    bad = report.raw["min-ACK"][False]
    assert good["frame_dropped"] and bad["frame_dropped"]
    # Paper's rule: the stream survives the crash intact.
    assert good["survivor_intact"] and good["client_ok"]
    # Ablated: acknowledged data is gone forever.
    assert not bad["survivor_intact"]
    assert not bad["client_ok"]

    # E8: slow secondary, 400 KB upload.
    good = report.raw["min-window"][True]
    bad = report.raw["min-window"][False]
    # Both complete (min-ACK still protects correctness)...
    assert good["intact"] and bad["intact"]
    # ...but the merge prevents secondary overruns entirely.
    assert good["secondary_trimmed"] == 0
    assert bad["secondary_trimmed"] > 0
