"""Spawn trials, aggregate them, refuse to report what does not repeat.

Every host-time value is one statistic of K fresh-process trials
(:data:`bench.spec.HOST_ESTIMATOR`; median, min, quartiles, max and K are
kept beside it).  Simulated metrics and every count must be identical
across the K trials: a trial set whose fingerprints disagree raises
:class:`BenchError` instead of producing a number.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterable, List

from bench.spec import (
    HOST_ESTIMATOR,
    HOST_METRICS,
    ROOT,
    SIMULATED_METRICS,
    is_host_time_layer_metric,
)

#: Fewest timed trials a reported host time may rest on.
MIN_TRIALS = 5
#: One trial must end well inside the driver's 180 s per run.
TRIAL_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark cannot report a number (wrong output, no repeat, crash)."""


def spawn_trial(workload: str, seed: int, traced: bool = False) -> Dict:
    """Run one trial in a fresh interpreter and return its result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    command = [
        sys.executable, "-m", "bench.trial",
        "--workload", workload, "--seed", str(seed),
        "--traced", str(int(traced)), "--spawned-at", repr(time.time()),
    ]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=TRIAL_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: trial exceeded {TRIAL_TIMEOUT_S} s") from exc
    if done.returncode != 0:
        raise BenchError(f"{workload}: trial exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(name: str, values: List[float]) -> Dict[str, float]:
    """The K trials of one host metric: its value and the spread beside it."""
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _q2, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    stats = {"median": statistics.median(ordered), "min": ordered[0], "q1": q1,
             "q3": q3, "max": ordered[-1], "k": len(ordered)}
    stats["value"] = stats[HOST_ESTIMATOR[name]]
    return stats


def aggregate(workload: str, timed: List[Dict], traced: Iterable[Dict] = ()) -> Dict:
    """Fold one workload's trials into its report entry."""
    traced = list(traced)
    prints = {trial["fingerprint"] for trial in timed + traced}
    if len(prints) != 1:
        raise BenchError(
            f"{workload}: simulated results differ between trials of one seed "
            f"({len(prints)} fingerprints over {len(timed)} timed + {len(traced)} traced)"
        )
    first = timed[0]
    entry = {
        "workload": workload,
        "seed": first["seed"],
        "fingerprint": first["fingerprint"],
        "attempted": first["attempted"],
        "failed": first["failed"],
        "op_fail_share": first["failed"] / first["attempted"],
        "problems": first["problems"],
        "host": {name: spread(name, [t["host"][name] for t in timed])
                 for name in HOST_METRICS},
        "simulated": first["simulated"],
        "counts": first["counts"],
    }
    if traced:
        entry["layers"] = fold_layers(workload, traced, entry, first["sim_elapsed_s"])
        entry["boundaries"] = traced[-1]["boundaries"]
    return entry


def fold_layers(workload: str, traced: List[Dict], entry: Dict, sim_elapsed_s: float) -> Dict:
    """Per-layer metrics: counts must agree, host times take the median."""
    for trial in traced:
        if trial["failed"]:
            raise BenchError(f"{workload}: traced run failed {trial['failed']} op(s): "
                             f"{trial['problems']}")
    layers: Dict[str, float] = {}
    for name in traced[0]["layers"]:
        values = [trial["layers"][name] for trial in traced]
        if is_host_time_layer_metric(name):
            layers[name] = statistics.median(values)
        elif len(set(values)) != 1:
            raise BenchError(f"{workload}: count {name} differs between traced runs: {values}")
        else:
            layers[name] = values[0]
    untraced_wall = entry["host"]["wall_s"]["value"]
    traced_wall = min(trial["host"]["wall_s"] for trial in traced)
    layers["trace.overhead_ratio"] = traced_wall / untraced_wall
    layers["sim.slowdown"] = untraced_wall / sim_elapsed_s if sim_elapsed_s else 0.0
    return layers


def run_for(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    """What the driver asks for: one workload, measured for ``seconds``.

    ``trace=False``: timed trials, at least :data:`MIN_TRIALS`.  ``trace=True``:
    one timed trial as the untraced reference, then traced trials.  Either way
    another trial starts only if, going by the last one, it ends in time.
    """
    started = time.monotonic()
    timed: List[Dict] = [spawn_trial(workload, seed)]
    traced: List[Dict] = []
    trials, fewest = (traced, 1) if trace else (timed, MIN_TRIALS)
    last_s = time.monotonic() - started
    while len(trials) < fewest or time.monotonic() - started + last_s <= seconds:
        began = time.monotonic()
        trials.append(spawn_trial(workload, seed, traced=trace))
        last_s = time.monotonic() - began
    return aggregate(workload, timed, traced)


def run_all(workloads: List[str], seed: int, trials: int, progress=None) -> Dict[str, Dict]:
    """The whole benchmark: K trials round-robin, then one traced run each."""
    timed: Dict[str, List[Dict]] = {name: [] for name in workloads}
    for round_index in range(trials):
        for name in workloads:
            timed[name].append(spawn_trial(name, seed))
            if progress:
                progress(f"trial {round_index + 1}/{trials} {name}")
    report = {}
    for name in workloads:
        traced = spawn_trial(name, seed, traced=True)
        if progress:
            progress(f"traced {name}")
        report[name] = aggregate(name, timed[name], [traced])
    return report


def driver_line(entry: Dict, spec: Dict, trace: bool) -> str:
    """The one JSON object the driver reads from the last line of stdout."""
    if trace:
        metrics = {m["name"]: {"value": entry["layers"][m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        values = {name: entry["host"][name]["value"] for name in HOST_METRICS}
        values.update({name: entry["simulated"][name] for name in SIMULATED_METRICS})
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return json.dumps({
        "correct": entry["failed"] == 0,
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": metrics,
    })
