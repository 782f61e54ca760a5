"""Command line: the full report, the driver's single-workload run, selfcheck.

    python -m bench --seed 1                         # every workload, K trials + traced run
    python -m bench --workload W --seed N --seconds S --trace 0|1    # what the driver calls
    python -m bench selfcheck --seed 1               # the benchmark against itself
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from typing import Dict, List

from bench.report import number, render
from bench.runner import MIN_TRIALS, BenchError, driver_line, run_all, run_for
from bench.spec import (
    HOST_METRICS,
    SETUP_SLACK_S,
    SIMULATED_METRICS,
    is_host_time_layer_metric,
    load_spec,
    workload_names,
)
from bench.trial import OUT_DIR, use_checkout_sources


def progress(message: str) -> None:
    print(f"  .. {message}", file=sys.stderr, flush=True)


def environment(seed: int, trials: int) -> Dict[str, object]:
    """What the numbers were measured on, recorded with every report."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "trial_hashseed": 0,  # bench.runner.spawn_trial pins PYTHONHASHSEED
        "seed": seed,
        "trials": trials,
        "trials_reduced": trials < MIN_TRIALS,
    }


def full_report(names: List[str], seed: int, trials: int, spec: Dict) -> int:
    from bench.workloads import WORKLOADS

    report = run_all(names, seed, trials, progress=progress)
    env = environment(seed, trials)
    print(render(report, spec, WORKLOADS, env))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / "report.json", "w", encoding="utf-8") as handle:
        json.dump({"environment": env, "workloads": report}, handle, indent=1)
    failed = {name: entry["failed"] for name, entry in report.items() if entry["failed"]}
    if failed:
        print(f"bench: FAILED ops: {failed}", file=sys.stderr)
        return 1
    return 0


def selfcheck(names: List[str], seed: int, trials: int, spec: Dict) -> int:
    """Run the whole benchmark twice on the same code and compare.

    Host times must agree within their bounds; simulated metrics and counts
    must not differ at all.  This is the measured noise floor, not a guess.
    """
    first = run_all(names, seed, trials, progress=progress)
    second = run_all(names, seed, trials, progress=progress)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bad = 0
    print(f"{'workload':<16}{'metric':<34}{'first':>13}{'second':>13}{'diff':>10}{'bound':>9}")
    for name in names:
        a, b = first[name], second[name]
        for metric in HOST_METRICS:
            x, y = a["host"][metric]["value"], b["host"][metric]["value"]
            diff = abs(y - x) / x
            ok = diff <= bounds[metric] or (metric == "setup_s" and abs(y - x) <= SETUP_SLACK_S)
            bad += not ok
            print(f"{name:<16}{metric:<34}{number(x):>13}{number(y):>13}{diff:>10.2%}"
                  f"{bounds[metric]:>9.0%}{'' if ok else '  OUT OF BOUND'}")
        exact = [(m, a["simulated"][m], b["simulated"][m]) for m in SIMULATED_METRICS]
        exact.append(("op_fail_share", a["op_fail_share"], b["op_fail_share"]))
        for m in spec["per_layer"]:
            x, y = a["layers"][m["name"]], b["layers"][m["name"]]
            if is_host_time_layer_metric(m["name"]):
                diff = abs(y - x) / x if x else 0.0
                print(f"{name:<16}{m['name']:<34}{number(x):>13}{number(y):>13}{diff:>10.2%}"
                      f"{'-':>9}")
            else:
                exact.append((m["name"], x, y))
        for metric, x, y in exact:
            ok = x == y
            bad += not ok
            print(f"{name:<16}{metric:<34}{number(x):>13}{number(y):>13}"
                  f"{'=' if ok else 'DIFFERS':>10}{'exact':>9}")
    print(f"selfcheck: {'ok' if not bad else f'{bad} pair(s) out of bound'}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", nargs="?", choices=("run", "selfcheck"), default="run")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trials", type=int, default=MIN_TRIALS,
                        help="timed fresh-process trials per workload (full report)")
    parser.add_argument("--workload", help="driver mode: run this one workload")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="driver mode: how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver mode: 0 end-to-end metrics, 1 per-layer metrics")
    args = parser.parse_args(argv)

    use_checkout_sources()
    spec = load_spec()
    names = workload_names(spec)
    if args.workload and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(names)})")
    try:
        if args.workload:
            entry = run_for(args.workload, args.seed, args.seconds, bool(args.trace))
            for problem in entry["problems"]:
                print(f"bench: {problem}", file=sys.stderr)
            print(driver_line(entry, spec, bool(args.trace)))
            return 1 if entry["failed"] else 0
        if args.mode == "selfcheck":
            return selfcheck(names, args.seed, args.trials, spec)
        return full_report(names, args.seed, args.trials, spec)
    except BenchError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2
