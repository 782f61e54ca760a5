"""One trial of one workload, in this process.

``python -m bench.trial --workload W --seed N`` is what the runner spawns K
times per workload: a fresh interpreter per trial, so ``setup_s`` covers
interpreter start and imports, ``peak_rss_mb`` belongs to this trial alone and
no trial warms another's caches.  The last line of standard output is the
trial's result as one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path
from typing import Dict, Optional

from bench.spec import ROOT

OUT_DIR = ROOT / "bench" / "out"


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/``, never an installed copy."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"bench: {src}/repro not found: run from a checkout of the repo")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import repro

    origin = Path(repro.__file__).resolve()
    if src not in origin.parents:
        raise SystemExit(f"bench: repro was imported from {origin}, not from {src}")


#: Tracer categories whose counts go into the fingerprint and the ledger.
COUNTED_CATEGORIES = (
    "tcp.tx", "tcp.rtx", "tcp.fast_rtx", "tcp.rst_sent", "tcp.rst_received",
    "eth.rx", "eth.collision", "arp.request", "wan.loss", "wan.tail_drop",
    "bridge.p.emit_data", "bridge.p.empty_ack", "bridge.p.mismatch",
    "host.crash", "detector.failure", "takeover.complete", "reintegration.complete",
)


def system_counts(cell) -> Dict[str, float]:
    """Deterministic counts the program keeps itself (no wrappers needed)."""
    counts: Dict[str, float] = {"events": cell.sim.events_processed}
    for category in COUNTED_CATEGORIES:
        counts[category] = cell.tracer.count(category)
    counts["frames"] = sum(segment.frames_delivered for segment in cell.segments)
    counts["collisions"] = sum(segment.collisions for segment in cell.segments)
    if cell.wan is not None:
        for direction in (cell.wan.a_to_b, cell.wan.b_to_a):
            counts["frames"] += direction.packets_sent
            counts["wan_drops"] = counts.get("wan_drops", 0) + direction.packets_lost
    if cell.service is not None:
        counts["steered"] = cell.service.segments_in + cell.service.segments_out
        counts["flows_rejected"] = cell.service.flows_rejected
    return counts


def simulated_metrics(outcome) -> Dict[str, float]:
    """The four simulated end-to-end metrics, full precision."""
    from repro.harness import rate_kb_s, summarize

    from bench.spec import tail_kind

    if not outcome.latencies or outcome.window_s <= 0:
        return {"sim_op_p50_ms": 0.0, "sim_op_tail_ms": 0.0,
                "sim_goodput_kb_s": 0.0, "sim_s_per_op": 0.0}
    stats = summarize(outcome.latencies)
    tail = {"p99": stats.p99, "p90": stats.p90, "max": stats.maximum}[
        tail_kind(len(outcome.latencies))
    ]
    return {
        "sim_op_p50_ms": stats.median * 1e3,
        "sim_op_tail_ms": tail * 1e3,
        "sim_goodput_kb_s": rate_kb_s(outcome.payload_bytes, outcome.window_s),
        "sim_s_per_op": outcome.elapsed_s / len(outcome.latencies),
    }


def fingerprint(simulated: Dict[str, float], outcome, counts: Dict[str, float]) -> str:
    """Hash of everything that must be a pure function of the seed."""
    canonical = json.dumps(
        {
            "simulated": {k: repr(v) for k, v in sorted(simulated.items())},
            "ops": [outcome.attempted, outcome.failed, outcome.payload_bytes],
            "latencies": [repr(v) for v in outcome.latencies],
            "stalls": [repr(v) for v in outcome.stalls],
            "counts": {k: repr(v) for k, v in sorted(counts.items())},
        },
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def run_trial(workload: str, seed: int, scale: float = 1.0, traced: bool = False,
              spawned_at: Optional[float] = None, trace_path: Optional[Path] = None,
              boundaries=None) -> Dict:
    """Set up, run, verify; with ``traced`` also collect the per-layer ledger.

    The caller has run :func:`use_checkout_sources`.
    """
    entered = time.time()
    from bench.workloads import WORKLOADS

    recorder = None
    if traced:
        from bench.tracing import BOUNDARIES, Recorder

        # Installed before set-up: bound methods captured while the testbed
        # is wired (rx taps, transmit hooks) must already be the wrappers.
        recorder = Recorder(seed, boundaries or BOUNDARIES).install()
    try:
        cell = WORKLOADS[workload](seed, scale=scale, observe=traced)
        gc.collect()
        if recorder is not None:
            recorder.reset()
        setup_s = time.time() - (spawned_at if spawned_at is not None else entered)
        started = time.perf_counter()
        cell.execute()
        wall_s = time.perf_counter() - started
        if recorder is not None:
            recorder.finish()
    finally:
        if recorder is not None:
            recorder.uninstall()

    outcome = cell.outcome()
    counts = system_counts(cell)
    simulated = simulated_metrics(outcome)
    ops = len(outcome.latencies)
    result = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "ops": ops,
        "problems": outcome.problems[:5],
        "host": {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "ops_per_s": ops / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "simulated": simulated,
        "sim_elapsed_s": outcome.elapsed_s,
        "counts": counts,
        "fingerprint": fingerprint(simulated, outcome, counts),
    }
    if recorder is not None:
        from bench.layers import layer_metrics

        result["layers"] = layer_metrics(recorder, outcome, counts, cell.checker_timed)
        result["boundaries"] = recorder.boundary_table()
        if trace_path is not None:
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            recorder.write(trace_path, workload)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.trial")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    args = parser.parse_args(argv)
    use_checkout_sources()
    trace_path = OUT_DIR / f"{args.workload}.trace.json" if args.traced else None
    result = run_trial(args.workload, args.seed, traced=bool(args.traced),
                       spawned_at=args.spawned_at, trace_path=trace_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
