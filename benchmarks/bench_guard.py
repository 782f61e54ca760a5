"""Bench regression guard: compare a fresh BENCH artifact to the baseline.

Usage::

    python benchmarks/bench_guard.py --fresh artifacts/BENCH_sim_engine.json

Every throughput metric (``*_per_sec``) in the fresh artifact must be at
least ``(1 - tolerance)`` times its committed-baseline counterpart;
anything slower fails the guard.  Dimensionless metrics with an explicit
floor (currently ``dispose:ratio / wheel_over_heap``, the wheel-vs-heap
acceptance bar) are checked against that floor rather than the baseline,
so they stay meaningful across machines of different absolute speed.

The tolerance defaults to 10% and can be overridden with ``--tolerance``
or the ``REPRO_BENCH_TOLERANCE`` environment variable (a fraction, e.g.
``0.10``).
"""

import argparse
import json
import os
import sys
from pathlib import Path

BASELINE_DIR = Path(__file__).parent / "baseline"
DEFAULT_TOLERANCE = 0.10

# label -> metric -> hard floor, compared directly (machine-independent).
RATIO_FLOORS = {
    "dispose:ratio": {"wheel_over_heap": 2.0},
    # Tracing at sample-rate 0 may cost at most 5% of untraced
    # throughput (the obs-overhead acceptance bar).
    "overhead:ratio": {"rate0_over_off": 0.95},
    # A blind RST sweep against the hardened bridge (crash + takeover
    # included) keeps at least 70% of the attack-free cell's goodput
    # per host-CPU second — spoofed probes must never amplify.
    "adversary:ratio": {"sweep_over_off": 0.70},
    # E14's flagship cell: the DNS-flip-with-stale-pools path must show
    # at least 1.5x the bridge path's p99 client-visible downtime (the
    # measured seed-1 value is ~4.2x) — transparent failover has to win.
    "clients:ratio": {"dns_over_bridge_p99": 1.5},
}


def default_baseline(fresh_path):
    """The committed baseline with the fresh artifact's filename.

    ``--fresh artifacts/BENCH_obs_overhead.json`` compares against
    ``baseline/BENCH_obs_overhead.json`` without needing ``--baseline``.
    """
    return BASELINE_DIR / Path(fresh_path).name


def load_metrics(path):
    doc = json.loads(Path(path).read_text())
    out = {}
    for result in doc.get("results", []):
        for metric, value in result.get("metrics", {}).items():
            out[(result["label"], metric)] = float(value)
    return out


def check(baseline_path, fresh_path, tolerance):
    baseline = load_metrics(baseline_path)
    fresh = load_metrics(fresh_path)
    failures = []
    rows = []
    for (label, metric), base_value in sorted(baseline.items()):
        fresh_value = fresh.get((label, metric))
        if fresh_value is None:
            failures.append(f"{label}/{metric}: missing from fresh artifact")
            continue
        floor = RATIO_FLOORS.get(label, {}).get(metric)
        if floor is not None:
            ok = fresh_value >= floor
            verdict = f">= {floor:g} (hard floor)"
        elif metric.endswith("_per_sec"):
            floor = (1.0 - tolerance) * base_value
            ok = fresh_value >= floor
            verdict = f">= {floor:,.0f} ({tolerance:.0%} below baseline {base_value:,.0f})"
        else:
            continue  # informational metric (e.g. compaction counts)
        rows.append((label, metric, fresh_value, verdict, ok))
        if not ok:
            failures.append(
                f"{label}/{metric}: {fresh_value:,.2f} fails {verdict}"
            )
    width = max((len(f"{label}/{metric}") for label, metric, *_ in rows), default=0)
    for label, metric, fresh_value, verdict, ok in rows:
        flag = "ok  " if ok else "FAIL"
        print(f"[guard] {flag} {f'{label}/{metric}':<{width}} {fresh_value:>14,.2f}  {verdict}")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", required=True, help="freshly produced BENCH json")
    parser.add_argument("--baseline", default=None,
                        help="baseline artifact (default: the committed"
                             " baseline with the fresh file's name)")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("REPRO_BENCH_TOLERANCE", DEFAULT_TOLERANCE)),
        help="allowed fractional throughput regression (default 0.10)",
    )
    args = parser.parse_args(argv)
    if args.baseline is None:
        args.baseline = str(default_baseline(args.fresh))
        print(f"[guard] baseline: {args.baseline}")
    for role, path in (("fresh artifact", args.fresh), ("baseline", args.baseline)):
        if not Path(path).is_file():
            print(f"[guard] no {role} at {path}: nothing was compared"
                  " (--baseline names a baseline explicitly)", file=sys.stderr)
            return 2
    failures = check(args.baseline, args.fresh, args.tolerance)
    if failures:
        for failure in failures:
            print(f"[guard] REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("[guard] all throughput metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
