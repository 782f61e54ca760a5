"""Trace parity: what a recording tracer sees may not depend on how the
emit sites hand their details over, and watching may not change the run.

The goldens are SHA-256 digests of ``Tracer.dump()`` for two seeded
scenarios, recorded on the commit *before* the emit sites switched from
eagerly formatted strings to renderers that ``Tracer.emit`` calls only when
somebody observes.  A recording run must still reproduce them byte for
byte; an unobserved run of the same seed must fire the same events, count
the same categories and deliver the same payload.

The second set of goldens pins the *testbed builders*: one seeded scenario
per way the repo assembles a testbed (calibrated LAN and WAN, the chaos,
adversary, client-tier and cluster planes), recorded on the commit before
they were rebuilt on one ``Lan`` and one cell core.  Same stream names,
MAC plans, addresses and construction order mean the same events at the
same instants, so every digest must still match.
"""

import hashlib
import json
from collections import Counter

import pytest

from repro.adversary import AttackSpec, run_attack_cell
from repro.apps import bulk
from repro.apps.echo import echo_once, echo_server
from repro.clients.paths import run_client_path
from repro.cluster.capacity import capacity_bench_rows, run_capacity
from repro.harness.chaos import REINTEGRATE_SIZE, CellSpec, run_cell
from repro.harness.topology import LanTestbed, WanTestbed
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


# ----------------------------------------------------------------------
# builder goldens: every way a testbed is assembled, pinned at the parent
# ----------------------------------------------------------------------

GOLDEN_BUILDER_SHA256 = {
    "lan_echo": "ab90d45d11d0a8ccc541d78435aa8c5ae67cf50ef408b1bf94778bfe07471b87",
    "wan_push": "19e07b9ae8befe072db59fed3d7815c242710a16780e586139629946f2bbf705",
    "chaos_crash_primary": "d285389c9b4402f03d132aa8e8f767a27ca49ad64002d1aee2d7b0fd0b82ce5a",
    "chaos_reintegrate": "3951cdd8f9db8e168ec168e0a4349d1384c17b163f1dd0f20a0a3210fe20daf5",
    "attack_rst_sweep": "37bdcf792e0ca5f4de1b4db2ae1ceec8680460ddfa41205723e2388f654779b0",
    "attack_flow_poison": "92b9eb410190e04139cd79b4986f1b4943ce8df23ce5c5d369c14594481f0355",
    "clients_bridge": "c60e99d1f7cd7cf33b80351cbd2b07fbc24f879f6c7c4c08c424ac58b05611ff",
    "clients_dns": "e025b18e743fb31c08e8514c9f78f62221583a6c2366c8782bdedd24bcfd93af",
    "capacity_storm": "f1098aac4f785f31837b90004ee2951ac41d5feee4def6299c80210ca6d9ed14",
}


def _digest(tracer, *scalars):
    """SHA-256 of the recorded trace plus the scalars that pin the run
    (``sim.events_processed`` where the simulator is reachable, the
    result's own duration/counters/fingerprint where it is not)."""
    text = tracer.dump() + "\n" + repr(scalars)
    return hashlib.sha256(text.encode()).hexdigest()


def _lan_echo():
    bed = LanTestbed(seed=5, failover_ports=(7,), record_traces=True)
    bed.start_detectors()
    bed.pair.run_app(lambda host: echo_server(host, 7), "echo")
    replies = run_all(
        bed.sim,
        [echo_once(bed.client, bed.server_ip, 7, tag) for tag in (b"one", b"two")],
        until=10.0,
    )
    assert replies == [b"echo:one", b"echo:two"]
    return _digest(bed.tracer, bed.sim.events_processed)


def _wan_push():
    bed = WanTestbed(seed=7, replicated=False, record_traces=True)
    results = {}
    bed.server.spawn(bulk.sink_server(bed.server, PORT, 60_000, results), "sink")
    run_all(
        bed.sim,
        [bulk.push_client(bed.client, bed.server_ip, PORT, 60_000, results, salt=3)],
        until=60.0,
    )
    assert results["received"] == 60_000
    return _digest(bed.tracer, bed.sim.events_processed)


def _chaos(point, fault, **spec):
    result = run_cell(CellSpec(point, fault, **spec))
    assert result.ok, result.describe()
    return _digest(
        result.tracer, result.duration, result.fires, result.acked,
        result.delivered, result.reintegrations,
    )


def _attack(strategy, position, fraction):
    result = run_attack_cell(AttackSpec(strategy, position, fraction, size=400_000))
    assert result.ok, result.describe()
    return _digest(result.tracer, result.fingerprint())


def _client_path(path):
    result = run_client_path(path, seed=1)
    return _digest(
        result.tracer, result.finished_at, result.stats.samples,
        result.stats.failures,
    )


def _capacity_storm():
    result = run_capacity(shards=2, clients=2, sessions=12, seed=1,
                          hold_for=0.8, storm_at=0.5, storm_fraction=0.5)
    rows = json.dumps(capacity_bench_rows(result), sort_keys=True)
    return _digest(result.fleet.tracer, result.fleet.sim.events_processed, rows)


BUILDER_SCENARIOS = {
    "lan_echo": _lan_echo,
    "wan_push": _wan_push,
    "chaos_crash_primary": lambda: _chaos("midpoint", "crash-primary"),
    "chaos_reintegrate": lambda: _chaos(
        "early", "crash-restart-reintegrate", size=REINTEGRATE_SIZE),
    "attack_rst_sweep": lambda: _attack("rst-sweep", "service", "midpoint"),
    "attack_flow_poison": lambda: _attack("flow-poison", "client", "early"),
    "clients_bridge": lambda: _client_path("bridge"),
    "clients_dns": lambda: _client_path("dns"),
    "capacity_storm": _capacity_storm,
}


@pytest.mark.parametrize("name", sorted(BUILDER_SCENARIOS))
def test_rebuilt_testbed_matches_parent_golden(name):
    assert BUILDER_SCENARIOS[name]() == GOLDEN_BUILDER_SHA256[name]


def test_unobserved_emit_never_calls_the_renderer():
    tracer = Tracer(record=False)

    def renderer():
        raise AssertionError("rendered for nobody")

    tracer.emit(0.0, "test.blind", "node", value=renderer)
    assert tracer.count("test.blind") == 1
