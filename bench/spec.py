"""``/BENCHMARK.json`` is the single list of workloads, metrics and bounds.

This module only reads it and says which metric is of which kind; the numbers
themselves are computed in :mod:`bench.trial` (end to end) and
:mod:`bench.layers` (per layer), and ``bench/tests`` checks that both agree
with the file name for name.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

NAME_GRAMMAR = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT_GRAMMAR = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")

#: End-to-end metrics measured on the host's clock (noisy, bounded) ...
HOST_METRICS = ("setup_s", "wall_s", "ops_per_s", "peak_rss_mb")
#: ... and on the simulated clock (a pure function of the seed).
SIMULATED_METRICS = ("sim_op_p50_ms", "sim_op_tail_ms", "sim_goodput_kb_s", "sim_s_per_op")

#: Which statistic of the K trials is *the* value of a host metric.  On a
#: shared box interference only ever adds time, so host times take the fastest
#: trial: measured on the 2-core box this was written on, the fastest of 6
#: trials spreads about 0.6x as much between runs as their median does, and
#: the median of set-up times drifted by 24 % between two quiet-looking
#: periods where the minimum moved by 3 %.  Memory is the median.
HOST_ESTIMATOR = {"setup_s": "min", "wall_s": "min", "ops_per_s": "max",
                  "peak_rss_mb": "median"}

#: ``setup_s`` may also move by this much in absolute terms (selfcheck only).
SETUP_SLACK_S = 0.05


def tail_kind(ops: int) -> str:
    """Which tail ``sim_op_tail_ms`` reports: the highest percentile with ten
    samples beyond it, or the maximum."""
    if ops >= 1000:
        return "p99"
    if ops >= 100:
        return "p90"
    return "max"


def load_spec() -> Dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def workload_names(spec: Dict) -> List[str]:
    return [entry["name"] for entry in spec["workloads"]]


def is_host_time_layer_metric(name: str) -> bool:
    """Per-layer metrics that read the host clock; the rest are exact counts
    or simulated times and must repeat bit for bit for a seed."""
    return (
        name.endswith((".self_s", ".self_share"))
        or "us_per_" in name
        or name in ("trace.overhead_ratio", "trace.unattributed_share", "sim.slowdown")
    )
