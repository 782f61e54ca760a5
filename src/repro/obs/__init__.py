"""Observability plane: metrics registry, flight recorder, pcap export.

Three pillars, all passive with respect to the simulation:

* :mod:`repro.obs.metrics` — labelled counters/gauges/histograms with
  near-zero cost when disabled, threaded through the sim engine, the
  Ethernet segment, hosts, the TCP layer and the failover bridges.
* :mod:`repro.obs.flight` — a flight recorder that consumes ``Tracer``
  streams and reconstructs per-connection timelines and the failover
  phase breakdown (detection → takeover → recovery) the paper's
  Figures 3–6 are built from.
* :mod:`repro.obs.pcap` — serialises traced frames into standard pcap
  files (one per logical interface: the client-visible wire and the
  diverted P↔S path, or one per Ethernet segment/NIC) openable in
  Wireshark/tshark.
* :mod:`repro.obs.spans` — deterministic, sampling-aware causal span
  tracing stitched across layers by flow key, with
  :mod:`repro.obs.trace_export` emitting Perfetto-compatible JSON and a
  compact binary ring.

:mod:`repro.obs.bench` writes the machine-readable ``BENCH_*.json``
artifacts every benchmark run emits.

This package deliberately imports nothing from :mod:`repro.harness`:
the harness (chaos cells, CLI, benchmarks) layers on top of it.  The one
exception is :mod:`repro.obs.views` — the ``python -m repro obs``
subcommand, which replays harness/cluster runs with the observers on —
and nothing in this package imports *it*.
"""

from repro.obs.metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_registries,
)

# flight/pcap/bench import repro.net and repro.tcp, which themselves import
# repro.obs.metrics for instrumentation — so this __init__ must not load them
# eagerly.  PEP 562 lazy attributes keep ``from repro.obs import export_pcaps``
# working without the cycle.
_LAZY = {
    "FlightRecorder": "repro.obs.flight",
    "PhaseBreakdown": "repro.obs.flight",
    "ReintegrationBreakdown": "repro.obs.flight",
    "captured_segments": "repro.obs.pcap",
    "export_pcaps": "repro.obs.pcap",
    "read_pcap": "repro.obs.pcap",
    "write_pcap": "repro.obs.pcap",
    "validate_bench_doc": "repro.obs.bench",
    "write_bench_artifact": "repro.obs.bench",
    "NOT_SAMPLED": "repro.obs.spans",
    "NULL_SPANS": "repro.obs.spans",
    "Span": "repro.obs.spans",
    "SpanContext": "repro.obs.spans",
    "SpanTracer": "repro.obs.spans",
    "flow_key": "repro.obs.spans",
    "chrome_trace": "repro.obs.trace_export",
    "read_span_ring": "repro.obs.trace_export",
    "validate_trace_doc": "repro.obs.trace_export",
    "write_chrome_trace": "repro.obs.trace_export",
    "write_span_ring": "repro.obs.trace_export",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)


__all__ = [
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NOT_SAMPLED",
    "NULL_METRICS",
    "NULL_SPANS",
    "merge_registries",
    "PhaseBreakdown",
    "ReintegrationBreakdown",
    "Span",
    "SpanContext",
    "SpanTracer",
    "captured_segments",
    "chrome_trace",
    "export_pcaps",
    "flow_key",
    "read_pcap",
    "read_span_ring",
    "validate_bench_doc",
    "validate_trace_doc",
    "write_bench_artifact",
    "write_chrome_trace",
    "write_pcap",
    "write_span_ring",
]
