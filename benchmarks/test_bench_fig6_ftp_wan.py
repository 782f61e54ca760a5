"""E5 — Figure 6: FTP get/put rates over a WAN (KB/s).

Paper (client-reported rates, wide-area path, high variance):

    | file KB | get std | get fo | put std | put fo  |
    | 0.2     | 8.75    | 8.75   | 512.38  | 536.05  |
    | 1.3     | 59.03   | 59.03  | 2033.76 | 2036.87 |
    | 18.2    | 90.41   | 70.74  | 3846.13 | 3890.42 |
    | 144.9   | 156.80  | 138.35 | 219.52  | 200.31  |
    | 1738.1  | 176.03  | 171.72 | 168.07  | 176.63  |

Shape to reproduce: over a WAN the failover penalty nearly vanishes (the
bottleneck is the wide-area path, not the server LAN) — gets and puts are
within ~±25% of standard at every size, small-file gets are RTT-bound,
and small-file puts are buffered (apparent rates far above the line rate).
"The measurements ... vary widely" — hence median over seeds.
"""

from benchmarks.conftest import FULL, emit
from repro.harness.experiments import FIG6_FILE_SIZES_KB, ftp_wan_report

SIZES = FIG6_FILE_SIZES_KB if FULL else FIG6_FILE_SIZES_KB[:4]
TRIALS = 5 if FULL else 3


def test_bench_fig6_ftp_wan(benchmark):
    report = benchmark.pedantic(
        ftp_wan_report, args=(SIZES, TRIALS), kwargs={"seed": 1},
        rounds=1, iterations=1,
    )
    emit(report)
    table = [
        (size_kb, report.raw["standard"][size_kb], report.raw["failover"][size_kb])
        for size_kb in SIZES
    ]
    for size_kb, std, fo in table:
        # The headline shape: failover ~ standard over a WAN.
        assert fo["get_kb_s"] > 0.6 * std["get_kb_s"], f"get diverged at {size_kb}KB"
        assert fo["put_kb_s"] > 0.6 * std["put_kb_s"], f"put diverged at {size_kb}KB"
    # Rates grow with file size for gets (RTT amortisation), as in the paper.
    gets = [std["get_kb_s"] for _, std, _ in table]
    assert gets[0] < gets[-1]
    # Small-file puts report buffered (apparently super-linear) rates.
    small_put = table[0][1]["put_kb_s"]
    small_get = table[0][1]["get_kb_s"]
    assert small_put > small_get * 5
