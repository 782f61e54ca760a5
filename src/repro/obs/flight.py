"""Flight recorder: reconstruct timelines from a ``Tracer`` stream.

The paper's headline numbers are *temporal* — Figures 3–6 break client
visible latency into detection, takeover and recovery — so the recorder
turns a flat trace into:

* **per-connection timelines**: creation, Δseq lock-in (merged SYN),
  first merged byte, FIN, deletion, plus merge counters;
* a **failover phase breakdown**: quiesce (last client-visible byte →
  crash), detection (crash → detector fire), takeover (detector fire →
  takeover complete / §6 direct-mode flush) and recovery (→ first
  post-failover client-visible byte).  The four phases are anchored on
  the same wire events the client-visible gap is measured from, so
  their sum *is* the gap — the identity the acceptance test checks;
* a human-readable **incident report** for failed chaos cells, placed
  next to the reproduction recipe.

Client-visible bytes are identified from ``eth.rx`` records that carry
the delivered frame: TCP payload destined to a bridge peer with no
ORIG_DST option (i.e. not on the diverted P↔S path).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.net.packet import Ipv4Datagram
from repro.sim.trace import TraceRecord, Tracer
from repro.tcp.segment import TcpSegment

#: How many of the trace's last records an incident report quotes.
INCIDENT_TAIL = 12

# Phase annotations used in rendered reports.
_PHASE_NOTES = {
    "quiesce": "last client-visible byte before the crash",
    "detection": "crash until the fault detector fires",
    "takeover": "detector fire until takeover/direct-mode flush completes",
    "recovery": "until the first post-failover client-visible byte",
}

_REINTEGRATION_NOTES = {
    "quiesce": "bridge flipped to merge mode, snapshot taken (atomic)",
    "install": "state transfer until the joiner's TCBs and bridge are live",
    "rearm": "detectors re-created on both sides",
    "merge": "until every resumed connection emitted a matched byte",
}


@dataclass(frozen=True)
class Phase:
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class PhaseBreakdown:
    """Failover decomposition; ``sum(durations) == client_gap`` holds by
    construction (the phases tile the gap interval exactly)."""

    crashed: str
    crash_time: float
    detect_time: float
    switch_time: float
    switch_kind: str  # "takeover" (primary crash) or "flush" (§6 direct mode)
    last_byte_before: Optional[float]
    first_byte_after: Optional[float]
    phases: List[Phase] = field(default_factory=list)

    @property
    def client_gap(self) -> Optional[float]:
        if self.last_byte_before is None or self.first_byte_after is None:
            return None
        return self.first_byte_after - self.last_byte_before

    @property
    def total(self) -> float:
        return sum(p.duration for p in self.phases)

    def durations(self) -> Dict[str, float]:
        return {p.name: p.duration for p in self.phases}

    def render(self) -> str:
        lines = [f"crash of {self.crashed} at t={self.crash_time:.6f}"]
        for p in self.phases:
            note = _PHASE_NOTES.get(p.name, "")
            lines.append(
                f"  {p.name:<10} {p.start:.6f} -> {p.end:.6f}  "
                f"{p.duration * 1e3:8.3f} ms  ({note})"
            )
        gap = self.client_gap
        if gap is not None:
            lines.append(
                f"  client-visible gap {gap * 1e3:.3f} ms"
                f" (phases sum to {self.total * 1e3:.3f} ms)"
            )
        else:
            lines.append("  client-visible gap unmeasured (no wire frames recorded)")
        return "\n".join(lines)


@dataclass
class ReintegrationBreakdown:
    """Reintegration decomposition; the four phases tile the interval from
    the quiesce event to merge completion exactly (see
    :mod:`repro.failover.reintegration` for the state machine)."""

    survivor: str
    joiner: str
    case: str  # "rejoin", "remerge" or "splice"
    start_time: float
    resumed: Optional[int] = None
    bypassed: Optional[int] = None
    complete_time: Optional[float] = None
    aborted: bool = False
    phases: List[Phase] = field(default_factory=list)

    @property
    def total(self) -> float:
        return sum(p.duration for p in self.phases)

    def durations(self) -> Dict[str, float]:
        return {p.name: p.duration for p in self.phases}

    def render(self) -> str:
        lines = [
            f"reintegration of {self.joiner} into {self.survivor}"
            f" ({self.case}) at t={self.start_time:.6f}"
            f" — resumed={self.resumed} bypassed={self.bypassed}"
        ]
        if self.aborted:
            lines.append("  ABORTED (a party died before install)")
            return "\n".join(lines)
        for p in self.phases:
            note = _REINTEGRATION_NOTES.get(p.name, "")
            lines.append(
                f"  {p.name:<10} {p.start:.6f} -> {p.end:.6f}  "
                f"{p.duration * 1e3:8.3f} ms  ({note})"
            )
        if self.complete_time is not None:
            lines.append(
                f"  redundancy restored after {self.total * 1e3:.3f} ms"
            )
        else:
            lines.append("  merge never completed (run ended first)")
        return "\n".join(lines)


@dataclass
class ConnectionTimeline:
    """One bridged connection reconstructed from ``bridge.p.*`` records."""

    peer: str
    role: str = "?"
    created: Optional[float] = None
    syn_merged: Optional[float] = None
    delta: Optional[int] = None
    mss: Optional[int] = None
    first_data: Optional[float] = None
    fin: Optional[float] = None
    deleted: Optional[float] = None
    delete_reason: Optional[str] = None
    data_segments: int = 0
    data_bytes: int = 0
    empty_acks: int = 0
    mismatches: int = 0
    events: List[Tuple[float, str]] = field(default_factory=list)

    def render(self) -> str:
        lines = [f"{self.peer} (role={self.role})"]
        for when, label in self.events:
            lines.append(f"  t={when:.6f}  {label}")
        lines.append(
            f"  counters: data_segments={self.data_segments}"
            f" data_bytes={self.data_bytes} empty_acks={self.empty_acks}"
            f" mismatches={self.mismatches}"
        )
        return "\n".join(lines)


def _client_data_frame(record: TraceRecord) -> Optional[Tuple[str, int]]:
    """``(dst_ip, payload_len)`` if the record is a delivered frame
    carrying TCP payload outside the diverted path, else None."""
    frame = record.detail.get("frame")
    if frame is None:
        return None
    datagram = getattr(frame, "payload", None)
    if not isinstance(datagram, Ipv4Datagram):
        return None
    segment = datagram.payload
    if not isinstance(segment, TcpSegment) or not segment.payload:
        return None
    if segment.orig_dst_option is not None:
        return None
    return str(datagram.dst), len(segment.payload)


class FlightRecorder:
    """Consumes a tracer's recorded stream and answers timeline queries.

    The tracer must have been recording (``Tracer(record=True)``); the
    recorder is read-only and can be constructed repeatedly over a live
    tracer as a run progresses.
    """

    def __init__(self, tracer: Tracer):
        self.records: List[TraceRecord] = list(tracer.records)

    # ------------------------------------------------------------------
    # per-connection timelines
    # ------------------------------------------------------------------

    def connections(self) -> List[ConnectionTimeline]:
        timelines: List[ConnectionTimeline] = []
        open_by_peer: Dict[str, ConnectionTimeline] = {}

        def active_for(record: TraceRecord) -> Optional[ConnectionTimeline]:
            # bridge.p events below are not peer-keyed; attribute them to
            # the most recently created still-open connection, which is
            # exact for the single-connection runs the harness drives and
            # a documented heuristic otherwise.
            if not open_by_peer:
                return None
            return max(open_by_peer.values(), key=lambda t: t.created or 0.0)

        for record in self.records:
            cat = record.category
            if not cat.startswith("bridge.p."):
                continue
            when = record.time
            detail = record.detail
            if cat == "bridge.p.conn_created":
                peer = str(detail.get("peer"))
                timeline = ConnectionTimeline(peer=peer, role=str(detail.get("role", "?")))
                timeline.created = when
                timeline.events.append((when, "created"))
                timelines.append(timeline)
                open_by_peer[peer] = timeline
                continue
            if cat == "bridge.p.conn_deleted":
                peer = str(detail.get("peer"))
                timeline = open_by_peer.pop(peer, None)
                if timeline is not None:
                    timeline.deleted = when
                    timeline.delete_reason = str(detail.get("reason"))
                    timeline.events.append((when, f"deleted ({timeline.delete_reason})"))
                continue
            timeline = active_for(record)
            if timeline is None:
                continue
            if cat == "bridge.p.syn_merged":
                timeline.syn_merged = when
                timeline.delta = detail.get("delta")
                timeline.mss = detail.get("mss")
                timeline.events.append(
                    (when, f"Δseq locked (delta={timeline.delta} mss={timeline.mss})")
                )
            elif cat == "bridge.p.emit_data":
                length = int(detail.get("len", 0))
                if length:
                    timeline.data_segments += 1
                    timeline.data_bytes += length
                    if timeline.first_data is None:
                        timeline.first_data = when
                        timeline.events.append(
                            (when, f"first merged byte (seq={detail.get('seq')})")
                        )
            elif cat == "bridge.p.empty_ack":
                timeline.empty_acks += 1
            elif cat == "bridge.p.emit_fin":
                if timeline.fin is None:
                    timeline.fin = when
                    timeline.events.append((when, f"FIN emitted (seq={detail.get('seq')})"))
            elif cat == "bridge.p.mismatch":
                timeline.mismatches += 1
                timeline.events.append((when, f"PAYLOAD MISMATCH: {detail.get('error')}"))
        return timelines

    # ------------------------------------------------------------------
    # client-visible wire bytes
    # ------------------------------------------------------------------

    def client_ips(self) -> Set[str]:
        """Bridge peers (the unmodified clients), inferred from the trace."""
        peers = set()
        for record in self.records:
            if record.category == "bridge.p.conn_created":
                peer = str(record.detail.get("peer", ""))
                if ":" in peer:
                    peers.add(peer.rsplit(":", 1)[0])
        return peers

    def client_byte_times(self) -> List[float]:
        """Times at which TCP payload reached a client on the wire."""
        clients = self.client_ips()
        times = []
        for record in self.records:
            if record.category != "eth.rx":
                continue
            hit = _client_data_frame(record)
            if hit is not None and (not clients or hit[0] in clients):
                times.append(record.time)
        return times

    # ------------------------------------------------------------------
    # failover phases
    # ------------------------------------------------------------------

    def _first(self, category: str, after: float = -1.0) -> Optional[TraceRecord]:
        for record in self.records:
            if record.category == category and record.time >= after:
                return record
        return None

    def phase_breakdown(self) -> Optional[PhaseBreakdown]:
        """Decompose the first crash in the trace, or None if no crash
        (or the run never produced a completed switch-over)."""
        breakdowns = self.phase_breakdowns()
        return breakdowns[0] if breakdowns else None

    def phase_breakdowns(self) -> List[PhaseBreakdown]:
        """Decompose *every* crash in the trace (repeated-failure runs:
        crash → reintegrate → crash again yields one breakdown each).

        Each crash's detection/switch events are searched only up to the
        next crash, so overlapping incidents never steal each other's
        markers; crashes whose switch-over never completed (e.g. the
        final crash of a to-the-death run) are skipped."""
        crashes = [r for r in self.records if r.category == "host.crash"]
        byte_times = self.client_byte_times()
        breakdowns: List[PhaseBreakdown] = []
        for index, crash in enumerate(crashes):
            bound = (
                crashes[index + 1].time
                if index + 1 < len(crashes)
                else float("inf")
            )
            detect = self._first("detector.failure", after=crash.time)
            if detect is None or detect.time > bound:
                continue
            switch = self._first("takeover.complete", after=detect.time)
            switch_kind = "takeover"
            if switch is None or switch.time > bound:
                switch = self._first("bridge.p.flushed", after=detect.time)
                switch_kind = "flush"
            if switch is None or switch.time > bound:
                continue

            last_before = None
            first_after = None
            for when in byte_times:
                if when <= crash.time:
                    last_before = when
                elif when >= switch.time and first_after is None:
                    first_after = when

            breakdown = PhaseBreakdown(
                crashed=crash.node,
                crash_time=crash.time,
                detect_time=detect.time,
                switch_time=switch.time,
                switch_kind=switch_kind,
                last_byte_before=last_before,
                first_byte_after=first_after,
            )
            quiesce_start = last_before if last_before is not None else crash.time
            recovery_end = first_after if first_after is not None else switch.time
            breakdown.phases = [
                Phase("quiesce", quiesce_start, crash.time),
                Phase("detection", crash.time, detect.time),
                Phase("takeover", detect.time, switch.time),
                Phase("recovery", switch.time, recovery_end),
            ]
            breakdowns.append(breakdown)
        return breakdowns

    # ------------------------------------------------------------------
    # attack phases
    # ------------------------------------------------------------------

    def attack_phases(self) -> List[Phase]:
        """Tile every adversary burst in the trace into a phase.

        ``adversary.attack_started`` / ``adversary.attack_finished``
        records are paired in order per attacker node; an unfinished
        attack (run ended mid-burst) closes at the last trace record.
        The phases render alongside detection/takeover so an incident
        shows *when* the attacker was active relative to the failover.
        """
        phases: List[Phase] = []
        open_attacks: Dict[Tuple[str, str], float] = {}
        last_time = self.records[-1].time if self.records else 0.0
        for record in self.records:
            if record.category == "adversary.attack_started":
                key = (record.node, str(record.detail.get("strategy")))
                open_attacks[key] = record.time
            elif record.category == "adversary.attack_finished":
                key = (record.node, str(record.detail.get("strategy")))
                start = open_attacks.pop(key, None)
                if start is not None:
                    phases.append(
                        Phase(f"attack:{key[1]}", start, record.time)
                    )
        for (node, strategy), start in sorted(open_attacks.items()):
            phases.append(Phase(f"attack:{strategy}", start, last_time))
        phases.sort(key=lambda p: p.start)
        return phases

    def attack_injections(self) -> int:
        """Total spoofed segments/packets the adversary put on the wire."""
        return sum(
            1 for r in self.records if r.category == "adversary.inject"
        )

    # ------------------------------------------------------------------
    # reintegration phases
    # ------------------------------------------------------------------

    def reintegration_breakdowns(self) -> List[ReintegrationBreakdown]:
        """Tile every reintegration in the trace into its four phases
        (quiesce → install → rearm → merge); the tiles cover the interval
        from the quiesce event to merge completion with no gaps."""
        breakdowns: List[ReintegrationBreakdown] = []
        current: Optional[ReintegrationBreakdown] = None
        marks: Dict[str, float] = {}
        for record in self.records:
            cat = record.category
            if not cat.startswith("reintegration."):
                continue
            when = record.time
            detail = record.detail
            if cat == "reintegration.start":
                current = ReintegrationBreakdown(
                    survivor=record.node,
                    joiner=str(detail.get("joiner")),
                    case=str(detail.get("case", "?")),
                    start_time=when,
                )
                marks = {"start": when}
                breakdowns.append(current)
            elif current is None:
                continue
            elif cat == "reintegration.snapshot":
                marks["snapshot"] = when
                current.resumed = detail.get("conns")
                current.bypassed = detail.get("bypassed")
            elif cat == "reintegration.aborted":
                current.aborted = True
                current = None
            elif cat == "reintegration.installed":
                marks["installed"] = when
            elif cat == "reintegration.armed":
                marks["armed"] = when
            elif cat == "reintegration.complete":
                current.complete_time = when
                snapshot = marks.get("snapshot", marks["start"])
                installed = marks.get("installed", snapshot)
                armed = marks.get("armed", installed)
                current.phases = [
                    Phase("quiesce", marks["start"], snapshot),
                    Phase("install", snapshot, installed),
                    Phase("rearm", installed, armed),
                    Phase("merge", armed, when),
                ]
                current = None
        return breakdowns

    # ------------------------------------------------------------------
    # reports
    # ------------------------------------------------------------------

    def report(self, title: str = "failover run") -> str:
        lines = [f"flight recorder report — {title}", ""]
        timelines = self.connections()
        if timelines:
            lines.append("connections:")
            for timeline in timelines:
                for line in timeline.render().splitlines():
                    lines.append(f"  {line}")
            lines.append("")
        breakdowns = self.phase_breakdowns()
        if breakdowns:
            lines.append("failover phases:")
            for breakdown in breakdowns:
                for line in breakdown.render().splitlines():
                    lines.append(f"  {line}")
        else:
            lines.append("failover phases: none observed (no crash in trace)")
        reintegrations = self.reintegration_breakdowns()
        if reintegrations:
            lines.append("reintegrations:")
            for breakdown in reintegrations:
                for line in breakdown.render().splitlines():
                    lines.append(f"  {line}")
        return "\n".join(lines)

    def incident_report(
        self,
        title: str,
        violations: Optional[List[str]] = None,
    ) -> str:
        """Diagnostic block for a failed chaos cell (with the trace's last
        ``INCIDENT_TAIL`` records)."""
        lines = [f"incident report — {title}"]
        if violations:
            lines.append("violations:")
            lines.extend(f"  {v}" for v in violations)
        breakdowns = self.phase_breakdowns()
        if breakdowns:
            lines.append("failover phases:")
            for breakdown in breakdowns:
                lines.extend(f"  {l}" for l in breakdown.render().splitlines())
        attacks = self.attack_phases()
        if attacks:
            injections = self.attack_injections()
            lines.append(f"attack phases ({injections} spoofed injections):")
            for phase in attacks:
                lines.append(
                    f"  {phase.name:<22} {phase.start:.6f} -> {phase.end:.6f}"
                    f"  {phase.duration * 1e3:8.3f} ms"
                )
        for breakdown in self.reintegration_breakdowns():
            lines.append("reintegration:")
            lines.extend(f"  {l}" for l in breakdown.render().splitlines())
        for timeline in self.connections():
            lines.extend(f"  {l}" for l in timeline.render().splitlines())
        if self.records:
            shown = self.records[-INCIDENT_TAIL:]
            lines.append(f"trace tail (last {len(shown)} records):")
            lines.extend(f"  {r}" for r in shown)
        else:
            lines.append("trace tail: (tracer was not recording)")
        return "\n".join(lines)
