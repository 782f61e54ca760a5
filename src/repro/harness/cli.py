"""Command-line experiment runner (``python -m repro``).

A pytest-free way to regenerate any of the paper's tables/figures::

    python -m repro setup               # E1  connection setup times
    python -m repro fig3 --quick        # E2  client->server send times
    python -m repro fig4 --quick        # E3  server->client transfer times
    python -m repro fig5 --bytes 8000000
    python -m repro fig6 --quick        # E5  FTP over WAN
    python -m repro failover            # E6  stall vs detector/ARP knobs
    python -m repro ablation            # E7/E8 merge-rule ablations
    python -m repro chain               # E9  daisy-chain depth sweep
    python -m repro reintegrate         # E11 crash -> rejoin -> crash again
    python -m repro adversary --quick   # E13 seeded attack-matrix shard
    python -m repro clients             # E14 recovery-path comparison
    python -m repro all --quick

Observability (the flight recorder / pcap plane)::

    python -m repro obs report          # phase breakdown of a seeded failover
    python -m repro obs pcap --out fo   # fo.wire.pcap + fo.divert.pcap

Static analysis (the correctness contract, DESIGN.md §8)::

    python -m repro lint                # == python -m repro.analysis src tests
    python -m repro lint --format=json src tests
    python -m repro lint --list-rules

Every experiment command also writes a machine-readable
``BENCH_<name>.json`` artifact when ``--bench-dir`` (or the
``REPRO_BENCH_DIR`` environment variable) is set.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List

from repro.harness import experiments
from repro.harness.metrics import Stats
from repro.obs import bench as obs_bench


def _table(title: str, header: List[str], rows: List[tuple]) -> None:
    print()
    print(f"== {title} ==")
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    print(" | ".join(h.ljust(w) for h, w in zip(header, widths)))
    print("-+-".join("-" * w for w in widths))
    for row in rows:
        print(" | ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def _us(stats: Stats) -> str:
    return f"{stats.median * 1e6:.0f}"


def _write_bench(args, name, params, results, stats=None, phases=None) -> None:
    """Write a ``BENCH_<name>.json`` artifact when a bench dir is set."""
    directory = getattr(args, "bench_dir", None) or os.environ.get(
        obs_bench.BENCH_DIR_ENV
    )
    if not directory:
        return
    path = obs_bench.write_bench_artifact(
        name, params, results, stats=stats, phases=phases, directory=directory
    )
    print(f"[bench] wrote {path}")


def cmd_setup(args) -> None:
    std = experiments.measure_connection_setup(False, trials=args.trials)
    fo = experiments.measure_connection_setup(True, trials=args.trials)
    _table(
        "E1: connection setup (us)",
        ["mode", "median", "max", "paper"],
        [
            ("standard", _us(std), f"{std.maximum*1e6:.0f}", "294 / 603"),
            ("failover", _us(fo), f"{fo.maximum*1e6:.0f}", "505 / 1193"),
        ],
    )
    _write_bench(
        args, "setup", {"trials": args.trials},
        [
            {"label": "standard", "metrics": {"median_us": std.median * 1e6}},
            {"label": "failover", "metrics": {"median_us": fo.median * 1e6}},
        ],
        stats={"standard": std.as_dict(), "failover": fo.as_dict()},
    )


def _sweep_sizes(quick: bool) -> List[int]:
    if quick:
        return [64, 8 * 1024, 64 * 1024, 512 * 1024]
    return experiments.FIG3_SIZES


def cmd_fig3(args) -> None:
    rows = []
    bench_rows, bench_stats = [], {}
    for size in _sweep_sizes(args.quick):
        std = experiments.measure_send_time(size, False, trials=args.trials)
        fo = experiments.measure_send_time(size, True, trials=args.trials)
        rows.append((size, _us(std), _us(fo), f"{fo.median/std.median:.2f}x"))
        for mode, stats in (("standard", std), ("failover", fo)):
            label = f"{mode} {size}B"
            bench_rows.append(
                {"label": label, "metrics": {"median_us": stats.median * 1e6}}
            )
            bench_stats[label] = stats.as_dict()
    _table("E2 / Fig 3: send time (us, median)",
           ["bytes", "standard", "failover", "ratio"], rows)
    _write_bench(args, "fig3_send_time",
                 {"trials": args.trials, "quick": bool(args.quick)},
                 bench_rows, stats=bench_stats)


def cmd_fig4(args) -> None:
    rows = []
    bench_rows, bench_stats = [], {}
    for size in _sweep_sizes(args.quick):
        std = experiments.measure_request_reply(size, False, trials=args.trials)
        fo = experiments.measure_request_reply(size, True, trials=args.trials)
        rows.append(
            (size, f"{std.median*1e3:.2f}", f"{fo.median*1e3:.2f}",
             f"{fo.median/std.median:.2f}x")
        )
        for mode, stats in (("standard", std), ("failover", fo)):
            label = f"{mode} {size}B"
            bench_rows.append(
                {"label": label, "metrics": {"median_ms": stats.median * 1e3}}
            )
            bench_stats[label] = stats.as_dict()
    _table("E3 / Fig 4: request->reply time (ms, median)",
           ["bytes", "standard", "failover", "ratio"], rows)
    _write_bench(args, "fig4_request_reply",
                 {"trials": args.trials, "quick": bool(args.quick)},
                 bench_rows, stats=bench_stats)


def cmd_fig5(args) -> None:
    std = experiments.measure_stream_rates(args.bytes, replicated=False)
    fo = experiments.measure_stream_rates(args.bytes, replicated=True)
    _table(
        f"E4 / Fig 5: stream rates over {args.bytes/1e6:.0f} MB (KB/s)",
        ["mode", "send", "recv", "paper send/recv"],
        [
            ("standard", f"{std['send_rate_kb_s']:.0f}", f"{std['recv_rate_kb_s']:.0f}",
             "7834 / 8708"),
            ("failover", f"{fo['send_rate_kb_s']:.0f}", f"{fo['recv_rate_kb_s']:.0f}",
             "5836 / 3510"),
        ],
    )
    _write_bench(
        args, "fig5_stream_rates", {"bytes": args.bytes},
        [
            {"label": "standard", "metrics": {
                "send_kb_s": std["send_rate_kb_s"], "recv_kb_s": std["recv_rate_kb_s"]}},
            {"label": "failover", "metrics": {
                "send_kb_s": fo["send_rate_kb_s"], "recv_kb_s": fo["recv_rate_kb_s"]}},
        ],
    )


def cmd_fig6(args) -> None:
    sizes = experiments.FIG6_FILE_SIZES_KB[: 3 if args.quick else None]
    rows = []
    bench_rows = []
    for size_kb in sizes:
        std = experiments.measure_ftp_rates(size_kb, False, trials=args.trials)
        fo = experiments.measure_ftp_rates(size_kb, True, trials=args.trials)
        rows.append(
            (size_kb, f"{std['get_kb_s']:.1f}", f"{fo['get_kb_s']:.1f}",
             f"{std['put_kb_s']:.1f}", f"{fo['put_kb_s']:.1f}")
        )
        for mode, res in (("standard", std), ("failover", fo)):
            bench_rows.append({
                "label": f"{mode} {size_kb}KB",
                "metrics": {"get_kb_s": res["get_kb_s"], "put_kb_s": res["put_kb_s"]},
            })
    _table("E5 / Fig 6: FTP over WAN (KB/s)",
           ["fileKB", "get std", "get fo", "put std", "put fo"], rows)
    _write_bench(args, "fig6_ftp_wan", {"trials": args.trials}, bench_rows)


def cmd_failover(args) -> None:
    rows = []
    bench_rows, phases = [], None
    for timeout in (0.020, 0.100, 0.300):
        result = experiments.measure_failover(
            total_bytes=800_000, detector_timeout=timeout, min_rto=0.05,
            record_traces=(phases is None),
        )
        phases = phases or result.get("phases")
        rows.append((f"detector={timeout*1e3:.0f}ms",
                     f"{result['stall_s']*1e3:.1f}ms", result["intact"]))
        bench_rows.append({
            "label": f"detector={timeout*1e3:.0f}ms",
            "metrics": {"stall_ms": result["stall_s"] * 1e3,
                        "intact": int(result["intact"])},
        })
    result = experiments.measure_failover(total_bytes=800_000, crash="secondary")
    rows.append(("secondary crash", f"{result['stall_s']*1e3:.1f}ms", result["intact"]))
    bench_rows.append({
        "label": "secondary crash",
        "metrics": {"stall_ms": result["stall_s"] * 1e3,
                    "intact": int(result["intact"])},
    })
    _table("E6: failover stall", ["scenario", "stall", "stream intact"], rows)
    _write_bench(args, "failover_stall", {"bytes": 800_000}, bench_rows,
                 phases=phases)


def cmd_ablation(args) -> None:
    rows = []
    bench_rows = []
    for merging in (True, False):
        r = experiments.measure_minack_ablation(ack_merging=merging)
        rows.append((f"min-ACK={'on' if merging else 'OFF'}",
                     r["survivor_bytes"], r["survivor_intact"], r["client_ok"]))
        bench_rows.append({
            "label": f"min-ACK={'on' if merging else 'off'}",
            "metrics": {"survivor_bytes": r["survivor_bytes"],
                        "survivor_intact": int(r["survivor_intact"])},
        })
    _table("E7: min-ACK ablation",
           ["variant", "survivor bytes", "intact", "client ok"], rows)
    rows = []
    for merging in (True, False):
        r = experiments.measure_minwindow_ablation(window_merging=merging)
        rows.append((f"min-window={'on' if merging else 'OFF'}",
                     f"{r['completion_s']:.3f}s", r["secondary_trimmed"], r["intact"]))
        bench_rows.append({
            "label": f"min-window={'on' if merging else 'off'}",
            "metrics": {"completion_s": r["completion_s"],
                        "secondary_trimmed": r["secondary_trimmed"]},
        })
    _table("E8: min-window ablation",
           ["variant", "completion", "S bytes trimmed", "intact"], rows)
    _write_bench(args, "ablation", {}, bench_rows)


def cmd_chain(args) -> None:
    rows = []
    bench_rows = []
    base = None
    for depth in (1, 2, 3, 4):
        rate = experiments.measure_chain_depth(depth)
        base = base or rate
        rows.append((depth, f"{rate:.0f}", f"{base/rate:.2f}x"))
        bench_rows.append({
            "label": f"depth-{depth}", "metrics": {"rate_kb_s": rate},
        })
    _table("E9: chain depth vs server->client rate (KB/s)",
           ["replicas", "KB/s", "slowdown"], rows)
    _write_bench(args, "chain_depth", {}, bench_rows)


def cmd_reintegrate(args) -> None:
    """E11: crash → reintegrate → crash again, client never notices."""
    rows = []
    bench_rows = []
    phases = None
    for label, double in (("single failover + rejoin", False),
                          ("double failover", True)):
        result = experiments.measure_reintegration(
            double=double, min_rto=0.05, record_traces=(phases is None),
        )
        if phases is None:
            tiles = result.get("reintegration_breakdowns") or []
            done = [b for b in tiles if b.phases]
            if done:
                phases = done[0].durations()
        rows.append((
            label,
            f"{result['stall_s']*1e3:.1f}ms",
            result["intact"],
            result["reintegrations"],
            result["redundancy_restored"],
        ))
        bench_rows.append({
            "label": label,
            "metrics": {
                "stall_ms": result["stall_s"] * 1e3,
                "intact": int(result["intact"]),
                "reintegrations": result["reintegrations"],
                "redundancy_restored": int(result["redundancy_restored"]),
            },
        })
    _table(
        "E11: reintegration (crash -> rejoin -> crash again)",
        ["scenario", "worst stall", "stream intact", "rejoins", "redundant again"],
        rows,
    )
    _write_bench(args, "reintegration", {}, bench_rows, phases=phases)


def cmd_cluster(args) -> None:
    """E12: sharded fleet capacity through a failover storm."""
    from repro.cluster import capacity_bench_rows, run_capacity

    result = run_capacity(
        shards=args.shards,
        clients=args.clients,
        sessions=args.sessions,
        seed=args.seed,
        ramp=args.ramp,
        hold_for=args.hold,
        storm_at=args.storm_at,
        storm_fraction=args.storm_fraction,
    )
    stats = result.stats
    windows = result.latency_windows()
    _table(
        f"E12: {args.shards}-shard capacity through a "
        f"{args.storm_fraction:.0%} primary storm",
        ["window", "requests", "median", "p99"],
        [
            (label, w.count, f"{w.median*1e3:.2f}ms", f"{w.p99*1e3:.2f}ms")
            for label, w in windows.items()
        ],
    )
    populations = result.shard_populations()
    _table(
        "placement",
        ["shard", "sessions", "killed", "failed over"],
        [
            (s.shard_id, populations[s.shard_id],
             "X" if s.shard_id in result.killed else "",
             "X" if s.pair.failed_over else "")
            for s in result.fleet.shards
        ],
    )
    print()
    print(f"sessions: {stats.sessions_completed}/{stats.sessions_started} completed,"
          f" {stats.sessions_failed} failed, {stats.corrupt_replies} corrupt replies")
    print(f"concurrent at storm: {result.concurrent_at_storm}"
          f" (peak {stats.peak_open})")
    print(f"goodput: {result.goodput_bytes_per_s()/1e3:.0f} KB/s,"
          f" {result.connections_per_s():.1f} conns/s")
    misplaced = result.misplaced_failures()
    print(f"failures outside killed shards: {len(misplaced)}")
    for line in misplaced:
        print(f"  {line}")
    if result.checker is not None:
        print(result.checker.report())
    rows = capacity_bench_rows(result)
    _write_bench(args, "cluster_capacity", rows["params"], rows["results"],
                 stats=rows["stats"])


def _obs_cluster_report(args) -> None:
    """Fleet-rollup metrics view: per-shard registries merged and labelled."""
    from repro.cluster import run_capacity

    result = run_capacity(
        shards=args.shards,
        clients=args.clients,
        sessions=args.sessions,
        seed=args.seed,
        ramp=args.ramp,
        hold_for=args.hold,
        storm_at=args.storm_at,
        storm_fraction=args.storm_fraction,
        enable_metrics=True,
    )
    merged = result.fleet.merged_metrics()
    print(f"== cluster metrics rollup (shards={args.shards},"
          f" sessions={args.sessions}, seed={args.seed},"
          f" killed={','.join(result.killed)}) ==")
    for line in merged.render().splitlines():
        print(f"  {line}")


def _obs_timeline(args) -> None:
    """Causal trace view: tree + per-layer cost rollup of a storm cell."""
    from repro.cluster import run_capacity
    from repro.obs.spans import render_trace_tree
    from repro.obs.trace_export import validate_trace_doc, write_chrome_trace

    result = run_capacity(
        shards=args.shards,
        clients=args.clients,
        sessions=args.sessions,
        seed=args.seed,
        ramp=args.ramp,
        hold_for=args.hold,
        storm_at=args.storm_at,
        storm_fraction=args.storm_fraction,
        span_sample_rate=args.sample_rate,
    )
    tracer = result.fleet.spans
    spans = tracer.finished_spans()
    print(f"== causal timeline (shards={args.shards}, sessions={args.sessions},"
          f" seed={args.seed}, killed={','.join(result.killed)}) ==")
    print(f"sampled {tracer.traces_sampled}/{tracer.traces_started} traces"
          f" ({args.sample_rate:g} head-based), {len(spans)} spans")
    print()
    print(render_trace_tree(spans, max_traces=args.max_traces))
    print()
    print("per-layer cost rollup:")
    for line in tracer.layer_rollup().render().splitlines():
        print(f"  {line}")
    if args.export:
        doc = write_chrome_trace(args.export, spans)
        errors = validate_trace_doc(doc)
        if errors:
            raise SystemExit("trace-event schema violations:\n  "
                             + "\n  ".join(errors))
        print()
        print(f"wrote {args.export} ({len(doc['traceEvents'])} events,"
              f" schema ok)")


def cmd_clients(args) -> None:
    """E14: one seeded workload, four client-tier recovery paths."""
    from repro.clients import PATHS, client_paths_bench_rows, run_client_paths

    # `repro all` reaches here with cluster-scale defaults; E14's flagship
    # cell is deliberately small, so direct invocations win and `all` runs
    # the documented cell.
    direct = args.experiment == "clients"
    cell = {
        "clients": args.clients if direct and args.clients else 3,
        "sessions": args.sessions if direct and args.sessions else 12,
    }
    results = run_client_paths(seed=args.seed, **cell)
    rows = client_paths_bench_rows(results, seed=args.seed, **cell)
    table_rows = []
    for path in PATHS:
        result = results[path]
        windows = result.latency_windows()
        blackout = result.stats.blackout(result.crash_at)
        table_rows.append((
            path,
            result.stats.requests_completed,
            result.stats.requests_failed,
            f"{windows['during'].median*1e3:.2f}ms",
            f"{windows['during'].p99*1e3:.2f}ms",
            f"{windows['during'].maximum*1e3:.2f}ms",
            f"{blackout*1e3:.1f}ms" if blackout is not None else "-",
        ))
    _table(
        f"E14: client-visible downtime by recovery path "
        f"(seed={args.seed}, sessions={cell['sessions']})",
        ["path", "ok", "failed", "p50", "p99", "max", "blackout"],
        table_rows,
    )
    print()
    print("recovery timelines (first occurrence per milestone):")
    for path in PATHS:
        result = results[path]
        line = ", ".join(
            f"{category}@{time*1e3:.1f}ms"
            for time, category, _ in result.timeline()
        )
        print(f"  {path:>7}: {line or '(no milestones recorded)'}")
    for path in PATHS:
        checker = results[path].checker
        if not checker.ok:
            print(f"  {path}: {checker.report()}")
    if all(results[path].checker.ok for path in PATHS):
        audited = sum(results[path].ledger.total for path in PATHS)
        print(f"client-outcome invariant held on every path"
              f" ({audited} requests audited)")
    _write_bench(args, "client_paths", rows["params"], rows["results"],
                 stats=rows["stats"])


def cmd_adversary(args) -> None:
    """E13: seeded shard of the adversarial attack matrix.

    Runs strategy × position × fraction cells against the replicated
    pair / dispatcher, prints the per-cell isolation verdicts, and emits
    a flight-recorder incident report for one cell so the attack-phase
    tiling (attack bursts beside detection/takeover) is visible from the
    CLI even when every invariant holds.
    """
    from repro.adversary import attack_matrix, run_attack_matrix, summarize
    from repro.sim.rng import seeded_rng

    seed = args.seed or 1
    grid = attack_matrix(seeds=(seed,))
    cells = args.cells
    if cells is None:
        cells = 6 if args.quick else len(grid)
    if cells < len(grid):
        picked = sorted(seeded_rng(seed).sample(range(len(grid)), cells))
        specs = [grid[i] for i in picked]
    else:
        specs = grid
    results = run_attack_matrix(specs)

    rows = []
    bench_rows = []
    for r in results:
        cell = f"{r.spec.strategy}@{r.spec.position}/{r.spec.fraction}"
        challenges = sum(
            v for k, v in r.counters.items()
            if k.startswith("challenge_acks.")
        )
        refused = r.counters.get("dispatcher.syn_reassigns_refused", 0)
        rows.append((
            cell, r.injections, challenges, refused, r.delivered,
            "X" if r.failed_over else "", "ok" if r.ok else "FAIL",
        ))
        bench_rows.append({
            "label": cell,
            "metrics": {
                "injections": r.injections,
                "challenges": challenges,
                "refused": refused,
                "delivered": r.delivered,
                "violations": len(r.violations),
                "duration_s": round(r.duration, 9),
            },
        })
    _table(
        f"E13: attack matrix shard ({len(results)} cells, seed={seed})",
        ["cell", "inject", "challenges", "refused", "delivered",
         "failed over", "status"],
        rows,
    )
    print()
    print(summarize(results))

    # One incident report per run: prefer a failing cell (real incident),
    # otherwise showcase the busiest traced cell so the attacker-phase
    # tiling and provenance-tagged records are demonstrated regardless.
    showcase = next((r for r in results if not r.ok), None)
    report = showcase.incident if showcase is not None else ""
    if not report:
        traced = [r for r in results if r.tracer is not None]
        if traced:
            busiest = max(traced, key=lambda r: r.injections)
            report = busiest.incident_report(" (all invariants held)")
    if report:
        print()
        print(report)
    _write_bench(
        args, "adversary_matrix",
        {"seed": seed, "cells": len(results), "quick": bool(args.quick)},
        bench_rows,
    )


def cmd_obs(args) -> None:
    """Flight-recorder / pcap / timeline views over one seeded run."""
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.pcap import export_pcaps

    action = args.action or "report"
    if action not in ("report", "pcap", "timeline"):
        raise SystemExit(
            f"unknown obs action {action!r} (expected report, pcap or timeline)"
        )
    if action == "timeline":
        _obs_timeline(args)
        return
    if action == "report" and args.cluster:
        _obs_cluster_report(args)
        return
    registry = MetricsRegistry()
    result = experiments.measure_failover(
        total_bytes=args.bytes,
        seed=args.seed,
        detector_timeout=args.timeout,
        min_rto=0.05,
        record_traces=True,
        metrics=registry,
    )
    if action == "pcap":
        counts = export_pcaps(result["tracer"], args.out)
        for iface in sorted(counts):
            print(f"wrote {args.out}.{iface}.pcap ({counts[iface]} packets)")
        return
    recorder = result["recorder"]
    print(recorder.report(title=f"seed={args.seed} detector={args.timeout*1e3:.0f}ms"))
    breakdown = result.get("breakdown")
    if breakdown is not None:
        print()
        print(f"measured client stall (application clock): "
              f"{result['stall_s']*1e3:.3f} ms")
        print(f"phase breakdown total (wire clock):        "
              f"{breakdown.total*1e3:.3f} ms")
    print()
    print("metrics:")
    for line in registry.render().splitlines():
        print(f"  {line}")


COMMANDS = {
    "setup": cmd_setup,
    "fig3": cmd_fig3,
    "fig4": cmd_fig4,
    "fig5": cmd_fig5,
    "fig6": cmd_fig6,
    "failover": cmd_failover,
    "ablation": cmd_ablation,
    "chain": cmd_chain,
    "reintegrate": cmd_reintegrate,
    "cluster": cmd_cluster,
    "adversary": cmd_adversary,
    "clients": cmd_clients,
}


def main(argv: List[str] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # The linter owns its own argparse surface; hand over before ours.
        from repro.analysis.cli import main as lint_main
        return lint_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the DSN'03 TCP-failover paper's experiments.",
    )
    parser.add_argument("experiment", choices=[*COMMANDS, "all", "obs"])
    parser.add_argument("action", nargs="?", default=None,
                        help="for obs: report (default), pcap or timeline")
    parser.add_argument("--quick", action="store_true",
                        help="fewer sweep points / smaller streams")
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--bytes", type=int, default=None,
                        help="stream length for fig5 / obs")
    parser.add_argument("--seed", type=int, default=0,
                        help="testbed seed for obs runs")
    parser.add_argument("--timeout", type=float, default=0.050,
                        help="detector timeout (s) for obs runs")
    parser.add_argument("--out", default="failover",
                        help="pcap base path for `obs pcap`")
    parser.add_argument("--bench-dir", default=None,
                        help="write BENCH_*.json artifacts to this directory")
    parser.add_argument("--cluster", action="store_true",
                        help="for `obs report`: fleet metrics rollup")
    parser.add_argument("--sample-rate", type=float, default=1.0,
                        help="head-based trace sampling rate for "
                             "`obs timeline` (0 disables tracing)")
    parser.add_argument("--export", default=None,
                        help="for `obs timeline`: write a Perfetto-loadable "
                             "Chrome trace-event JSON file here")
    parser.add_argument("--max-traces", type=int, default=3,
                        help="trace trees to render in `obs timeline`")
    parser.add_argument("--shards", type=int, default=None,
                        help="shard count for cluster runs")
    parser.add_argument("--clients", type=int, default=None,
                        help="client-host count for cluster runs")
    parser.add_argument("--sessions", type=int, default=None,
                        help="closed-loop session count for cluster runs")
    parser.add_argument("--storm-fraction", type=float, default=0.25,
                        help="fraction of primaries killed by the storm")
    parser.add_argument("--storm-at", type=float, default=0.9,
                        help="simulated time (s) of the storm")
    parser.add_argument("--ramp", type=float, default=0.5,
                        help="session arrival ramp window (s)")
    parser.add_argument("--hold", type=float, default=1.6,
                        help="per-session connection hold time (s)")
    parser.add_argument("--cells", type=int, default=None,
                        help="adversary shard size (default: full matrix,"
                             " 6 with --quick)")
    args = parser.parse_args(argv)
    cluster_run = args.experiment == "cluster" or (
        args.experiment == "obs" and args.cluster
    )
    if args.shards is None:
        args.shards = 8 if cluster_run and not args.quick else 4
    if args.clients is None:
        args.clients = 3 if args.experiment == "clients" else 4
    if args.sessions is None:
        if cluster_run and not args.quick:
            args.sessions = 256
        elif args.experiment == "clients":
            args.sessions = 12
        else:
            args.sessions = 64
    if args.trials is None:
        args.trials = 5 if args.quick else 20
    if args.bytes is None:
        if args.experiment == "obs":
            args.bytes = 800_000
        else:
            args.bytes = 4_000_000 if args.quick else 10_000_000
    if args.experiment == "obs":
        cmd_obs(args)
    elif args.experiment == "all":
        for name, command in COMMANDS.items():
            command(args)
    else:
        COMMANDS[args.experiment](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
