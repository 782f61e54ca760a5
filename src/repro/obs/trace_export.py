"""Span export: Chrome trace-event JSON and a compact binary ring.

Two consumers, two formats:

* **Perfetto / chrome://tracing** — the trace-event JSON format
  (``ph: "X"`` complete events on per-host tracks, ``ph: "i"`` instants,
  ``ph: "M"`` metadata naming processes and threads).  Hosts map to
  processes; each trace gets its own thread row within the host so
  concurrent flows render as parallel tracks.
* **Million-flow runs** — a fixed-record binary ring
  (:func:`write_span_ring` / :func:`read_span_ring`): string-table +
  struct-packed records, ~56 bytes per span vs. ~300 for JSON, suitable
  for bounded in-memory rings dumped post-run.

Both writers are byte-deterministic: ordering is derived purely from
span ``(start, trace_id, span_id)``, JSON is emitted with sorted keys
and no whitespace, so a seeded run exports identically every time — the
CI smoke job (plane ``obs``) ``cmp``'s two runs to hold that line.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.spans import Span

__all__ = [
    "chrome_trace",
    "read_span_ring",
    "validate_trace_doc",
    "write_chrome_trace",
    "write_span_ring",
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


# ----------------------------------------------------------------------
# Binary ring format
# ----------------------------------------------------------------------
#
#   header:  magic "RSPN" | u16 version | u16 reserved
#            u32 string-count | u32 record-count
#   strings: u32 length + utf-8 bytes, repeated  (names, hosts, attr JSON)
#   records: <QQQ IIII dd>  trace_id span_id parent_id
#                           name_idx host_idx attrs_idx reserved
#                           start end
#
# Attrs are stored as canonical JSON strings in the shared table, so the
# many spans that share an attribute shape (or have none) cost 4 bytes.

_MAGIC = b"RSPN"
_VERSION = 1
_HEADER = struct.Struct("<4sHHII")
_RECORD = struct.Struct("<QQQIIIIdd")


def write_span_ring(path: str, spans: Iterable[Span]) -> int:
    """Write spans in the compact binary ring format; returns the count."""
    ordered = _ordered(spans)
    strings: List[str] = []
    index_of: Dict[str, int] = {}

    def intern(text: str) -> int:
        idx = index_of.get(text)
        if idx is None:
            idx = len(strings)
            index_of[text] = idx
            strings.append(text)
        return idx

    records = []
    for span in ordered:
        attrs_json = json.dumps(
            {key: _json_safe(value) for key, value in span.attrs.items()},
            sort_keys=True, separators=(",", ":"),
        )
        records.append(_RECORD.pack(
            span.trace_id, span.span_id, span.parent_id,
            intern(span.name), intern(span.host), intern(attrs_json), 0,
            span.start, span.end,
        ))

    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, 0, len(strings), len(records)))
        for text in strings:
            raw = text.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
        for record in records:
            fh.write(record)
    return len(records)


def read_span_ring(path: str) -> List[Span]:
    """Parse a ring file back into :class:`Span` objects (export inverse)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        raise ValueError(f"{path}: truncated header")
    magic, version, _, string_count, record_count = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    offset = _HEADER.size
    strings: List[str] = []
    for _ in range(string_count):
        (length,) = struct.unpack_from("<I", data, offset)
        offset += 4
        strings.append(data[offset:offset + length].decode("utf-8"))
        offset += length
    spans: List[Span] = []
    for _ in range(record_count):
        (trace_id, span_id, parent_id, name_idx, host_idx, attrs_idx, _r,
         start, end) = _RECORD.unpack_from(data, offset)
        offset += _RECORD.size
        spans.append(Span(
            trace_id, span_id, parent_id, strings[name_idx],
            strings[host_idx], start, end, json.loads(strings[attrs_idx]),
        ))
    if offset != len(data):
        raise ValueError(f"{path}: {len(data) - offset} trailing bytes")
    return spans
