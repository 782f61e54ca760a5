"""Tests for the bulk stream workloads."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import bulk
from repro.failover.reintegration import AppResume
from repro.sim.process import spawn
from repro.tcp.socket_api import ListeningSocket, SimSocket
from tests.util import SERVER_IP, TwoHostLan, run_all


def test_pattern_bytes_deterministic():
    assert bulk.pattern_bytes(1000) == bulk.pattern_bytes(1000)
    assert bulk.pattern_bytes(1000, salt=1) != bulk.pattern_bytes(1000, salt=2)
    assert len(bulk.pattern_bytes(12345)) == 12345
    assert bulk.pattern_bytes(0) == b""


def _reference_pattern(size, salt):
    """The generator as first written: one period rebuilt per call."""
    period = bytes((i * 31 + salt * 17 + (i >> 8)) & 0xFF for i in range(2048))
    reps, rem = divmod(size, len(period))
    return period * reps + period[:rem]


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 3 * 2048 + 1), st.integers(0, 255)),
    min_size=1, max_size=12,
))
def test_pattern_bytes_matches_uncached_reference_in_any_call_order(calls):
    # Hypothesis draws the calls in arbitrary order and with repeats, so a
    # period cached under the wrong salt would surface as a mismatch.
    for size, salt in calls:
        assert bulk.pattern_bytes(size, salt) == _reference_pattern(size, salt)


def test_pattern_bytes_salt_wraps_like_the_reference():
    for salt in (-1, 256, 257, 20030622):
        assert bulk.pattern_bytes(5000, salt) == _reference_pattern(5000, salt)


def test_push_client_records_timestamps():
    lan = TwoHostLan()
    results = {}
    sink = {}
    lan.server.spawn(bulk.sink_server(lan.server, 80, 10_000, sink), "sink")
    spawn(lan.sim, bulk.push_client(lan.client, SERVER_IP, 80, 10_000, results), "push")
    lan.run(until=30.0)
    assert sink["received"] == 10_000
    assert results["t_connected"] <= results["t_send_done"] <= results["t_closed"]


def test_pull_client_verifies_integrity():
    lan = TwoHostLan()
    results = {}
    lan.server.spawn(bulk.source_server(lan.server, 80, 20_000, salt=3), "src")
    spawn(
        lan.sim,
        bulk.pull_client(lan.client, SERVER_IP, 80, 20_000, results, salt=3),
        "pull",
    )
    lan.run(until=30.0)
    assert results["intact"]
    assert results["t_last_byte"] > results["t_request_sent"]


def test_pull_client_detects_salt_mismatch():
    lan = TwoHostLan()
    results = {}
    lan.server.spawn(bulk.source_server(lan.server, 80, 5_000, salt=1), "src")
    spawn(
        lan.sim,
        bulk.pull_client(lan.client, SERVER_IP, 80, 5_000, results, salt=2),
        "pull",
    )
    lan.run(until=30.0)
    assert results["intact"] is False


def test_send_time_flat_below_buffer_then_grows():
    """The Figure-3 mechanism: send() returns at buffer acceptance, so a
    message smaller than the send buffer 'sends' almost instantly."""
    lan = TwoHostLan()
    sink_results = {}
    timings = {}

    def sink_forever():
        from repro.tcp.socket_api import ListeningSocket

        listening = ListeningSocket.listen(lan.server, 80)
        while True:
            sock = yield from listening.accept()
            data = yield from sock.recv_until_eof()
            yield from sock.close_and_wait()

    lan.server.spawn(sink_forever(), "sink")

    def timed_push(size, tag):
        results = {}
        yield from bulk.push_client(lan.client, SERVER_IP, 80, size, results)
        timings[tag] = results["t_send_done"] - results["t_connected"]

    def driver():
        yield from timed_push(16 * 1024, "small")   # fits in the 64 KB buffer
        yield 1.0
        yield from timed_push(512 * 1024, "large")  # must drain on the wire

    spawn(lan.sim, driver(), "driver")
    lan.run(until=60.0)
    assert timings["small"] < 1e-3           # near-instant buffer copy
    assert timings["large"] > 10 * timings["small"]


class _CountingSocket:
    """Counts the bytes an app reads through ``recv_exactly``."""

    def __init__(self, sock):
        self.sock = sock
        self.read = 0

    def recv_exactly(self, count):
        data = yield from self.sock.recv_exactly(count)
        self.read += len(data)
        return data

    def __getattr__(self, name):
        return getattr(self.sock, name)


@pytest.mark.parametrize("read, written", [(1, 0), (2, 0), (3, 0), (4, 3000)])
def test_resume_source_reads_the_rest_of_the_request_then_sends_the_rest(
    read, written
):
    lan = TwoHostLan()
    blob = bulk.pattern_bytes(10_000, salt=5)
    box = {}

    def server():
        listening = ListeningSocket.listen(lan.server, 80)
        box["sock"] = _CountingSocket((yield from listening.accept()))
        resume = AppResume(written=written, read=read, snapshot=None)
        yield from bulk.resume_source(blob)(lan.server, box["sock"], resume)

    def client():
        sock = SimSocket.connect(lan.client, SERVER_IP, 80)
        yield from sock.wait_connected()
        if read < 4:  # the survivor had read only part of the request
            yield from sock.send_all(b"PULL"[read:])
        box["data"] = yield from sock.recv_until_eof()
        yield from sock.close_and_wait()

    lan.server.spawn(server(), "resume")
    spawn(lan.sim, client(), "client")
    lan.run(until=30.0)
    assert box["sock"].read == 4 - read
    assert box["data"] == blob[written:]
