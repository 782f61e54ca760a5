"""The per-layer ledger: one traced run turned into named metrics.

Counts are exact for a seed.  ``<layer>.self_s`` is span self time (duration
minus child spans, minus the calibrated cost of the wrappers) summed over
every span the layer owns, so the seven layers plus
``trace.unattributed_share`` tile the traced run's corrected wall time.  Every
metric here is listed under ``per_layer`` in ``/BENCHMARK.json``; the README
says which end-to-end metric each one should move, and on which workload.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from bench.tracing import LAYER_NAMES, LAYERS, Recorder

METRIC_UPDATE_SPANS = ("Counter.inc", "Gauge.set", "Gauge.add", "Histogram.observe")
INVARIANT_SPANS = ("InvariantChecker._check_emission",
                   "InvariantChecker.check_replica_agreement")


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def median_ms(samples: List[float]) -> float:
    return statistics.median(samples) * 1e3 if samples else 0.0


def failover_timeline(timeline) -> Dict[str, List[float]]:
    """Crash -> detection -> takeover delays from the watched trace records."""
    detect: List[float] = []
    takeover: List[float] = []
    last_crash = None
    failures: Dict[str, float] = {}
    for when, category, node in timeline:
        if category == "host.crash":
            last_crash = when
        elif category == "detector.failure":
            failures[node] = when
            if last_crash is not None:
                detect.append(when - last_crash)
        elif category == "takeover.complete" and node in failures:
            takeover.append(when - failures.pop(node))
    return {"detect": detect, "takeover": takeover}


def layer_metrics(recorder: Recorder, outcome, counts: Dict[str, float],
                  checker_timed: bool) -> Dict[str, float]:
    """``checker_timed``: the workload runs its InvariantChecker in the timed
    trials too.  Where only the traced run attaches one, ``wall_s`` never pays
    for it, so its spans stay out of ``obs.self_s`` and out of the shares."""
    probes = recorder.probes
    skip = () if checker_timed else INVARIANT_SPANS
    self_s = dict(zip(LAYER_NAMES, recorder.layer_self_times(skip)))
    # Shares are of the corrected total, so the seven layers and the
    # unattributed rest tile it exactly.
    total = sum(self_s.values())
    ops = len(outcome.latencies)
    payload = outcome.payload_bytes
    events = counts["events"]
    segments = counts["tcp.tx"]
    frames = counts["frames"]
    retransmits = counts["tcp.rtx"] + counts["tcp.fast_rtx"]
    inspected = probes.bridge_inspected
    steered = counts.get("steered", 0)
    timeline = failover_timeline(probes.timeline)
    us = 1e6

    metrics: Dict[str, float] = {
        # -- sim -------------------------------------------------------------
        "sim.events": events,
        "sim.events_per_op": ratio(events, ops),
        "sim.timers_cancelled_share": ratio(probes.timers_cancelled, probes.timers_scheduled),
        "sim.queue_peak": probes.queue_peak,
        "sim.process_steps": sum(
            recorder.count[i] for i, name in enumerate(recorder.names)
            if name.startswith("step[")
        ),
        "sim.self_s": self_s["sim"],
        "sim.us_per_event": ratio(self_s["sim"] * us, events),
        # -- net -------------------------------------------------------------
        "net.frames": frames,
        "net.frames_per_segment": ratio(frames, segments),
        "net.collisions": counts["collisions"],
        "net.arp_requests": counts["arp.request"],
        "net.wan_drops": counts.get("wan_drops", 0),
        "net.eth_wait_ms_p50": median_ms(probes.eth_waits),
        "net.cpu_backlog_peak_ms": probes.cpu_backlog_peak * 1e3,
        "net.self_s": self_s["net"],
        "net.us_per_frame": ratio(self_s["net"] * us, frames),
        # -- tcp -------------------------------------------------------------
        "tcp.segments": segments,
        "tcp.segments_per_op": ratio(segments, ops),
        "tcp.pure_ack_share": ratio(probes.pure_acks_sent, probes.segments_sent),
        "tcp.retransmits": retransmits,
        "tcp.retransmit_share": ratio(retransmits, segments),
        "tcp.timers_per_segment": ratio(probes.timers_by_layer[LAYERS.index("tcp")], segments),
        "tcp.csum_bytes_per_payload_byte": ratio(probes.csum_bytes, payload),
        "tcp.table_peak": probes.tcp_table_peak,
        "tcp.self_s": self_s["tcp"],
        "tcp.rx_us_per_segment": ratio(
            recorder.layer_time_of("TcpLayer.receive_segment") * us,
            recorder.count_of("TcpLayer.receive_segment")),
        "tcp.tx_us_per_segment": ratio(
            recorder.layer_time_of("TcpLayer.send_segment") * us,
            recorder.count_of("TcpLayer.send_segment")),
        # -- failover --------------------------------------------------------
        "failover.segments_in": inspected,
        "failover.segments_emitted": probes.bridge_emitted,
        "failover.emit_ratio": ratio(probes.bridge_emitted, inspected),
        "failover.bytes_matched": probes.bytes_matched,
        "failover.empty_acks": counts["bridge.p.empty_ack"],
        "failover.mismatches": counts["bridge.p.mismatch"],
        "failover.queue_peak_bytes": probes.queue_peak_bytes,
        "failover.queue_wait_ms_p50": median_ms(probes.queue_waits),
        "failover.takeovers": counts["takeover.complete"],
        "failover.reintegrations": counts["reintegration.complete"],
        "failover.detect_ms_p50": median_ms(timeline["detect"]),
        "failover.takeover_ms_p50": median_ms(timeline["takeover"]),
        "failover.stall_ms_p50": median_ms(outcome.stalls),
        "failover.stall_ms_max": max(outcome.stalls, default=0.0) * 1e3,
        "failover.self_s": self_s["failover"],
        "failover.us_per_segment": ratio(self_s["failover"] * us, inspected),
        # -- cluster ---------------------------------------------------------
        "cluster.steered": steered,
        "cluster.flows_peak": probes.flows_peak,
        "cluster.flows_rejected": counts.get("flows_rejected", 0),
        "cluster.self_s": self_s["cluster"],
        "cluster.us_per_segment": ratio(self_s["cluster"] * us, steered),
        # -- apps ------------------------------------------------------------
        "apps.ops": ops,
        "apps.pattern_calls": probes.pattern_calls,
        "apps.gen_bytes_per_payload_byte": ratio(probes.pattern_built, payload),
        "apps.self_s": self_s["apps"],
        "apps.us_per_op": ratio(self_s["apps"] * us, ops),
        # -- obs -------------------------------------------------------------
        "obs.emits": probes.emits,
        "obs.emits_unobserved_share": ratio(probes.emits_unobserved, probes.emits),
        "obs.invariant_checks": recorder.count_of(*INVARIANT_SPANS),
        "obs.metric_updates": recorder.count_of(*METRIC_UPDATE_SPANS),
        "obs.self_s": self_s["obs"],
        # -- the trace itself ------------------------------------------------
        "trace.spans": recorder.span_count(),
        "trace.unattributed_share": ratio(self_s["other"], total),
        "trace.boundaries_missing": len(recorder.missing),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = ratio(self_s[layer], total)
    return metrics
