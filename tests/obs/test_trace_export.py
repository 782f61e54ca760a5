"""Trace export tests: Chrome trace-event JSON.

The exporter's contract is byte-determinism — same spans, same bytes —
plus schema validity strict enough that Perfetto/chrome://tracing loads
the file without warnings.
"""

import random

from repro.obs.spans import SpanTracer
from repro.obs.trace_export import (
    chrome_trace,
    validate_trace_doc,
    write_chrome_trace,
)


def sample_spans(seed=11):
    tracer = SpanTracer(rng=random.Random(seed), sample_rate=1.0)
    for i in range(3):
        root = tracer.trace_root("workload.session", 0.1 * i, f"client{i % 2}",
                                 session=i)
        req = tracer.start_span(root, "workload.request", 0.1 * i + 0.01,
                                f"client{i % 2}", size=512)
        tracer.event(req, "tcp.tx", 0.1 * i + 0.02, "front", seq=100 + i)
        tracer.record_span(root, "eth.hop", 0.1 * i + 0.03, 0.1 * i + 0.04,
                           "lan0", collided=False)
        tracer.finish(req, 0.1 * i + 0.05)
        tracer.finish(root, 0.1 * i + 0.09)
    return tracer.finished_spans()


# -- chrome trace-event JSON -------------------------------------------


def test_chrome_trace_is_schema_valid():
    doc = chrome_trace(sample_spans())
    assert validate_trace_doc(doc) == []
    events = doc["traceEvents"]
    phases = {e["ph"] for e in events}
    assert phases == {"M", "X", "i"}


def test_chrome_trace_separates_hosts_and_traces():
    doc = chrome_trace(sample_spans())
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    process_names = {
        e["args"]["name"] for e in meta if e["name"] == "process_name"
    }
    assert process_names == {"client0", "client1", "front", "lan0"}
    # Each (host, trace) pair renders as its own named thread row.
    spans = sample_spans()
    tracks = {(s.host, s.trace_id) for s in spans}
    thread_names = [e for e in meta if e["name"] == "thread_name"]
    assert len(thread_names) == len(tracks)


def test_chrome_trace_args_carry_ids_and_attrs():
    doc = chrome_trace(sample_spans())
    events = {e["name"]: e for e in doc["traceEvents"] if e["ph"] != "M"}
    root = events["workload.session"]
    assert "parent_id" not in root["args"]  # trace roots have no parent
    assert "session" in root["args"]
    assert root["ph"] == "X"
    assert root["dur"] >= 0
    child = events["workload.request"]
    assert child["args"]["parent_id"] == root["args"]["span_id"]
    assert child["args"]["trace_id"] == root["args"]["trace_id"]


def test_write_chrome_trace_is_byte_deterministic(tmp_path):
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    write_chrome_trace(path_a, sample_spans(seed=11))
    write_chrome_trace(path_b, sample_spans(seed=11))
    assert path_a.read_bytes() == path_b.read_bytes()
    write_chrome_trace(path_b, sample_spans(seed=12))
    assert path_a.read_bytes() != path_b.read_bytes()


def test_validate_trace_doc_catches_corruption():
    doc = chrome_trace(sample_spans())
    del doc["traceEvents"][0]["ph"]
    first_x = next(e for e in doc["traceEvents"] if e.get("ph") == "X")
    first_x["ts"] = -5.0
    errors = validate_trace_doc(doc)
    assert len(errors) >= 2
    assert validate_trace_doc({"nope": []})
