"""``python -m repro obs``: flight-recorder / pcap / timeline views.

Each view replays one seeded run with the observers switched on and
returns a :class:`~repro.harness.report.Report` of what they saw; none
files a BENCH artifact (``pcap`` and ``timeline --export`` write the
files they are asked for).  This is the one module of the package that
sits *on top of* the harness and cluster planes, so nothing else in
``repro.obs`` may import it.
"""

from __future__ import annotations

from repro.cluster.capacity import add_cell_flags, run_cell_from_flags
from repro.harness.experiments import measure_failover
from repro.harness.report import Report
from repro.obs.metrics import MetricsRegistry
from repro.obs.pcap import export_pcaps
from repro.obs.spans import render_trace_tree
from repro.obs.trace_export import validate_trace_doc, write_chrome_trace


def _indented(text: str):
    return [f"  {line}" for line in text.splitlines()]


def _add_failover_flags(parser) -> None:
    parser.add_argument("--bytes", type=int, default=800_000,
                        help="stream length")
    parser.add_argument("--timeout", type=float, default=0.050,
                        help="detector timeout (s)")


def _traced_failover(args, metrics=None):
    return measure_failover(
        total_bytes=args.bytes,
        seed=args.seed,
        detector_timeout=args.timeout,
        min_rto=0.05,
        record_traces=True,
        metrics=metrics,
    )


def report_view(args) -> Report:
    """Phase breakdown + metrics dump of a seeded failover; with
    ``--cluster``, the fleet rollup of a storm cell instead (per-shard
    registries merged and labelled)."""
    if args.cluster:
        result = run_cell_from_flags(args, args.quick, enable_metrics=True)
        fleet = result.fleet
        return Report(notes=[
            f"== cluster metrics rollup (shards={len(fleet.shards)},"
            f" sessions={result.workload.sessions}, seed={fleet.seed},"
            f" killed={','.join(result.killed)}) ==",
            *_indented(fleet.merged_metrics().render()),
        ])
    registry = MetricsRegistry()
    result = _traced_failover(args, registry)
    notes = [result["recorder"].report(
        title=f"seed={args.seed} detector={args.timeout*1e3:.0f}ms")]
    breakdown = result.get("breakdown")
    if breakdown is not None:
        notes += [
            "",
            f"measured client stall (application clock): "
            f"{result['stall_s']*1e3:.3f} ms",
            f"phase breakdown total (wire clock):        "
            f"{breakdown.total*1e3:.3f} ms",
        ]
    notes += ["", "metrics:", *_indented(registry.render())]
    return Report(notes=notes)


def pcap_view(args) -> Report:
    """The same failover as ``<out>.wire.pcap`` + ``<out>.divert.pcap``."""
    counts = export_pcaps(_traced_failover(args)["tracer"], args.out)
    return Report(notes=[
        f"wrote {args.out}.{iface}.pcap ({counts[iface]} packets)"
        for iface in sorted(counts)
    ])


def timeline_view(args) -> Report:
    """Causal trace view: tree + per-layer cost rollup of a storm cell."""
    # Always the quick-scale cell: a 256-session timeline is unreadable.
    result = run_cell_from_flags(
        args, quick=True, span_sample_rate=args.sample_rate
    )
    fleet = result.fleet
    tracer = fleet.spans
    spans = tracer.finished_spans()
    notes = [
        f"== causal timeline (shards={len(fleet.shards)},"
        f" sessions={result.workload.sessions},"
        f" seed={fleet.seed}, killed={','.join(result.killed)}) ==",
        f"sampled {tracer.traces_sampled}/{tracer.traces_started} traces"
        f" ({args.sample_rate:g} head-based), {len(spans)} spans",
        "",
        render_trace_tree(spans, max_traces=args.max_traces),
        "",
        "per-layer cost rollup:",
        *_indented(tracer.layer_rollup().render()),
    ]
    if args.export:
        doc = write_chrome_trace(args.export, spans)
        errors = validate_trace_doc(doc)
        if errors:
            raise SystemExit("trace-event schema violations:\n  "
                             + "\n  ".join(errors))
        notes += ["", f"wrote {args.export} ({len(doc['traceEvents'])} events,"
                      f" schema ok)"]
    return Report(notes=notes)


#: What each spelling of ``obs report`` reads besides ``--seed``.
_FAILOVER_FLAGS = ("bytes", "timeout")
_CELL_FLAGS = ("quick", "shards", "clients", "sessions", "storm_fraction",
               "storm_at", "ramp", "hold")


def obs_command(parser) -> None:
    """flight-recorder / pcap / timeline views over one seeded run"""
    # `repro obs [flags]` is `repro obs report [flags]`: harness/cli.py
    # supplies the word, argparse has no default subcommand.
    views = parser.add_subparsers(dest="view", metavar="{report,pcap,timeline}",
                                  required=True)

    report = views.add_parser("report", help=report_view.__doc__)
    _add_failover_flags(report)  # --seed comes with the cell flags
    report.add_argument("--cluster", action="store_true",
                        help="fleet metrics rollup of a storm cell; takes the"
                             " cell flags below instead of --bytes/--timeout")
    report.add_argument("--quick", action="store_true",
                        help="with --cluster: the 4-shard x 64-session cell"
                             " instead of 8 x 256")
    add_cell_flags(report)

    def run_report(args) -> Report:
        # One word, two views: each reads its own flags, and the other's
        # are an error rather than a value nobody looks at.
        unread = [
            "--" + dest.replace("_", "-")
            for dest in (_FAILOVER_FLAGS if args.cluster else _CELL_FLAGS)
            if getattr(args, dest) != report.get_default(dest)
        ]
        if unread:
            report.error(f"{' '.join(unread)}: "
                         + ("not read with --cluster" if args.cluster
                            else "only read with --cluster"))
        return report_view(args)

    report.set_defaults(run=run_report)

    pcap = views.add_parser("pcap", help=pcap_view.__doc__)
    _add_failover_flags(pcap)
    pcap.add_argument("--seed", type=int, default=0, help="testbed seed")
    pcap.add_argument("--out", default="failover", help="pcap base path")
    pcap.set_defaults(run=pcap_view)

    timeline = views.add_parser("timeline", help=timeline_view.__doc__)
    add_cell_flags(timeline)
    timeline.add_argument("--quick", action="store_true",
                          help="changes nothing (the timeline cell is always"
                               " the quick one); kept because the verify"
                               " recipe and the CLI golden spell it")
    timeline.add_argument("--sample-rate", type=float, default=1.0,
                          help="head-based trace sampling rate"
                               " (0 disables tracing)")
    timeline.add_argument("--export", default=None,
                          help="write a Perfetto-loadable Chrome trace-event"
                               " JSON file here")
    timeline.add_argument("--max-traces", type=int, default=3,
                          help="trace trees to render")
    timeline.set_defaults(run=timeline_view)
