"""Trace parity: what a recording tracer sees may not depend on how the
emit sites hand their details over, and watching may not change the run.

The goldens are SHA-256 digests of ``Tracer.dump()`` for two seeded
scenarios, recorded on the commit *before* the emit sites switched from
eagerly formatted strings to renderers that ``Tracer.emit`` calls only when
somebody observes.  A recording run must still reproduce them byte for
byte; an unobserved run of the same seed must fire the same events, count
the same categories and deliver the same payload.
"""

import hashlib
from collections import Counter

import pytest

from repro.apps import bulk
from repro.sim.trace import Tracer
from repro.tcp.connection import TcpState
from repro.tcp.socket_api import ListeningSocket, SimSocket
from tests.util import ReplicatedLan, TwoHostLan, run_all

PORT = 80
PUSH_SIZE = 200_000
PULL_SIZE = 120_000

GOLDEN_DUMP_SHA256 = {
    "fig3_push": "8cb3a75b991b8bd5cfc5af9bb86901cd500df24318d8fb1c12a4cb6f64ac3297",
    "crash_pull": "9ae5d5201e7e5abaadb73f3261925c86622796986b015574a785bcf8d3f6b31a",
}


def _hashing_sink(host, expected, digests):
    """Replica application: drain ``expected`` bytes, keep their digest."""
    listening = ListeningSocket.listen(host, PORT)
    sock = yield from listening.accept()
    data = yield from sock.recv_exactly(expected)
    digests[host.name] = hashlib.sha256(data).hexdigest()
    yield from sock.close_and_wait()
    listening.close()


def _fig3_push(record):
    """Figure 3: one client-to-server stream through the replicated pair."""
    lan = ReplicatedLan(seed=3, failover_ports=(PORT,), record_traces=record)
    digests = {}
    lan.pair.run_app(lambda host: _hashing_sink(host, PUSH_SIZE, digests))
    results = {}
    run_all(
        lan.sim,
        [bulk.push_client(lan.client, lan.server_ip, PORT, PUSH_SIZE, results, salt=5)],
        until=60.0,
    )
    expected = hashlib.sha256(bulk.pattern_bytes(PUSH_SIZE, 5)).hexdigest()
    assert digests == {"primary": expected, "secondary": expected}
    return lan, digests


def _crash_pull(record):
    """§5: the primary dies mid-pull, the secondary takes the address over."""
    lan = ReplicatedLan(seed=11, failover_ports=(PORT,), record_traces=record)
    lan.start_detectors()
    lan.pair.run_app(lambda host: bulk.source_server(host, PORT, PULL_SIZE, salt=9))

    def client():
        sock = SimSocket.connect(lan.client, lan.server_ip, PORT, min_rto=0.05)
        yield from sock.wait_connected()
        yield from sock.send_all(b"PULL")
        data = yield from sock.recv_exactly(PULL_SIZE)
        yield from sock.close_and_wait()
        return data

    lan.sim.schedule(0.030, lan.pair.crash_primary)
    (data,) = run_all(lan.sim, [client()], until=60.0)
    assert data == bulk.pattern_bytes(PULL_SIZE, 9)
    assert lan.pair.failed_over
    return lan, {"client": hashlib.sha256(data).hexdigest()}


SCENARIOS = {"fig3_push": _fig3_push, "crash_pull": _crash_pull}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_recorded_trace_matches_parent_golden(name):
    lan, _ = SCENARIOS[name](record=True)
    dump = lan.tracer.dump()
    assert hashlib.sha256(dump.encode()).hexdigest() == GOLDEN_DUMP_SHA256[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_watching_does_not_change_the_simulation(name):
    watched, watched_digests = SCENARIOS[name](record=True)
    blind, blind_digests = SCENARIOS[name](record=False)
    assert blind.tracer.records == []
    assert blind.sim.events_processed == watched.sim.events_processed
    assert blind.sim.now == watched.sim.now
    assert blind_digests == watched_digests
    recorded = Counter(record.category for record in watched.tracer.records)
    assert recorded["tcp.tx"] and recorded["eth.rx"]
    for category, count in sorted(recorded.items()):
        assert watched.tracer.count(category) == count, category
        assert blind.tracer.count(category) == count, category


def test_recorded_details_are_strings_rendered_at_emit_time():
    lan, _ = _crash_pull(record=True)
    retransmits = lan.tracer.select(category="tcp.rtx")
    assert retransmits, "the takeover gap must cost at least one RTO"
    for record in retransmits:
        assert type(record.detail["conn"]) is str
        assert record.detail["conn"].startswith("Tcp[")
    for record in lan.tracer.select(category="tcp.tx"):
        assert type(record.detail["seg"]) is str
        assert type(record.detail["dst"]) is str


def test_renderer_snapshot_survives_later_mutation():
    """A deferred renderer is called inside ``emit``, never later: what the
    record holds is the connection as it was, not as it has become."""
    lan = TwoHostLan()
    lan.server.tcp.listen(PORT)
    conn = lan.client.tcp.connect(lan.server.ip.primary_address(), PORT)
    lan.run(until=1.0)
    assert conn.state is TcpState.ESTABLISHED
    before = repr(conn)
    seen = []
    tracer = Tracer(record=True)
    tracer.subscribe(lambda record: seen.append(record.detail["conn"]))
    tracer.emit(lan.sim.now, "test.snapshot", "client", conn=conn.__repr__, n=1)
    conn.state = TcpState.CLOSE_WAIT
    assert repr(conn) != before
    (record,) = tracer.records
    assert record.detail == {"conn": before, "n": 1}
    assert seen == [before]
    assert "conn=" + before in tracer.dump()


def test_unobserved_emit_never_calls_the_renderer():
    tracer = Tracer(record=False)

    def renderer():
        raise AssertionError("rendered for nobody")

    tracer.emit(0.0, "test.blind", "node", value=renderer)
    assert tracer.count("test.blind") == 1
