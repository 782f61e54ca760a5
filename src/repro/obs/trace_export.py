"""Span export: Chrome trace-event JSON for Perfetto / chrome://tracing.

The trace-event format has ``ph: "X"`` complete events on per-host
tracks, ``ph: "i"`` instants and ``ph: "M"`` metadata naming processes
and threads.  Hosts map to processes; each trace gets its own thread row
within the host so concurrent flows render as parallel tracks.

The writer is byte-deterministic: ordering is derived purely from
span ``(start, trace_id, span_id)``, JSON is emitted with sorted keys
and no whitespace, so a seeded run exports identically every time — the
CI smoke job (plane ``obs``) ``cmp``'s two runs to hold that line.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Tuple

from repro.obs.spans import Span

__all__ = [
    "chrome_trace",
    "validate_trace_doc",
    "write_chrome_trace",
]


def _ordered(spans: Iterable[Span]) -> List[Span]:
    return sorted(spans, key=lambda s: (s.start, s.trace_id, s.span_id))


def _json_safe(value: object) -> object:
    """Trace-event args must be JSON values; stringify anything exotic."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def chrome_trace(spans: Iterable[Span]) -> Dict[str, object]:
    """Render spans as a Chrome trace-event document (Perfetto-loadable).

    Process ids are assigned over the sorted host names; thread ids are
    assigned per (host, trace) in order of first appearance over the
    deterministically-ordered span list.  Timestamps are microseconds
    (the format's unit), rounded to nanosecond precision so float noise
    cannot leak into the bytes.
    """
    ordered = _ordered(spans)
    hosts = sorted({span.host for span in ordered})
    pid_of = {host: index + 1 for index, host in enumerate(hosts)}
    tid_of: Dict[Tuple[str, int], int] = {}
    next_tid: Dict[str, int] = {host: 1 for host in hosts}

    events: List[Dict[str, object]] = []
    for host in hosts:
        events.append({
            "ph": "M", "name": "process_name", "pid": pid_of[host], "tid": 0,
            "args": {"name": host},
        })
    for span in ordered:
        track = (span.host, span.trace_id)
        tid = tid_of.get(track)
        if tid is None:
            tid = next_tid[span.host]
            next_tid[span.host] = tid + 1
            tid_of[track] = tid
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid_of[span.host],
                "tid": tid, "args": {"name": f"trace {span.trace_id:016x}"},
            })
        args: Dict[str, object] = {
            key: _json_safe(value) for key, value in sorted(span.attrs.items())
        }
        args["trace_id"] = f"{span.trace_id:016x}"
        args["span_id"] = f"{span.span_id:016x}"
        if span.parent_id:
            args["parent_id"] = f"{span.parent_id:016x}"
        event: Dict[str, object] = {
            "name": span.name,
            "cat": span.layer,
            "pid": pid_of[span.host],
            "tid": tid,
            "ts": round(span.start * 1e6, 3),
            "args": args,
        }
        if span.is_instant:
            event["ph"] = "i"
            event["s"] = "t"  # thread-scoped instant
        else:
            event["ph"] = "X"
            event["dur"] = round(span.duration * 1e6, 3)
        events.append(event)

    return {
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.obs.trace_export"},
        "traceEvents": events,
    }


def write_chrome_trace(path: str, spans: Iterable[Span]) -> Dict[str, object]:
    """Write the trace-event JSON canonically (sorted keys, no spaces).

    Returns the document so callers can validate or summarise it.
    """
    doc = chrome_trace(spans)
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return doc


_PHASES = frozenset({"X", "i", "M"})


def validate_trace_doc(doc: object) -> List[str]:
    """Schema check for the trace-event documents this module emits.

    Returns a list of problems (empty = valid).  Deliberately strict
    about what *we* produce, not about the format at large: every event
    needs ph/name/pid/tid, "X" needs numeric ts+dur >= 0, "i" needs ts
    and a scope, "M" must be a process_name/thread_name record.
    """
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not an object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in _PHASES:
            errors.append(f"{where}: bad ph {ph!r}")
            continue
        for field in ("name", "pid", "tid"):
            if field not in event:
                errors.append(f"{where}: missing {field}")
        if not isinstance(event.get("args", {}), dict):
            errors.append(f"{where}: args not an object")
        if ph == "M":
            if event.get("name") not in ("process_name", "thread_name"):
                errors.append(f"{where}: unknown metadata {event.get('name')!r}")
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts < 0:
            errors.append(f"{where}: bad ts {ts!r}")
        if ph == "X":
            dur = event.get("dur")
            if (not isinstance(dur, (int, float)) or isinstance(dur, bool)
                    or dur < 0):
                errors.append(f"{where}: bad dur {dur!r}")
        if ph == "i" and event.get("s") not in ("t", "p", "g"):
            errors.append(f"{where}: instant without scope")
    return errors
