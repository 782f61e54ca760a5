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

The third set pins the *bridge* before its algorithm moved out of
``PrimaryBridge``: the §6 secondary-failure path, a chain that loses its
middle, its tail and its head around a splice-in, a §7.2 connect-out, and
one run hashed through all three telemetry consumers (trace, metrics,
spans).
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


# ----------------------------------------------------------------------
# bridge goldens: the §6, chain and §7.2 paths, and all three telemetry
# spellings (trace, metrics, spans) of one run — pinned at the parent of
# the commit that moved the algorithm out of PrimaryBridge
# ----------------------------------------------------------------------

GOLDEN_BRIDGE_SHA256 = {
    "chaos_crash_secondary": "335363882999903d9f369b2edc5a4a22a4acf87ea91f021e1eee61d613a2e924",
    "chaos_crash_secondary_pull": "cf568317c9455e9bc0d8e919e9d273eacc127e2c17e3b7a7657613cc93494ff7",
    "chain_splice": "d38e1c89eb58554dc50c3a107453c0175533d5fd65b5ab336f8a9af06efd836e",
    "connect_out_crash_secondary": "aa7bac3be6bcf5b3e040838b082c6a9d64a93250b892a4da10b823abe78d3c4a",
    "telemetry_remerge": "ab1fd022932e526a6eb7a7e050256b6e17cbbac83d8f3fa3bb851298b4e7923b",
}


def _chain_splice():
    """Three replicas: the middle dies, then the tail (§6 on the head),
    the tail restarts and is spliced back in, then the head dies and the
    new tail is promoted — every ChainBridge role change in one pull."""
    from tests.failover.test_chain import ChainLan, pull

    lan = ChainLan(replicas=3)
    size = 1_500_000
    blob = bulk.pattern_bytes(size)
    head, middle, tail = lan.replicas

    def resume_source(host, sock, resume):
        if resume.written == 0 and resume.read < 4:
            yield from sock.recv_exactly(4 - resume.read)
        yield from sock.send_all(blob[resume.written:])
        yield from sock.close_and_wait()

    lan.sim.schedule(0.010, lan.chain.crash, middle)
    lan.sim.schedule(0.050, lan.chain.crash, tail)
    lan.sim.schedule(0.090, tail.restart)
    lan.sim.schedule(
        0.100, lambda: lan.chain.splice_in(tail, resume_app=resume_source)
    )
    lan.sim.schedule(0.160, lan.chain.crash, head)
    assert pull(lan, size) == blob
    for category in ("bridge.p.flushed", "bridge.p.resume_merged", "chain.promoted"):
        assert lan.tracer.count(category) == 1, category
    assert lan.tracer.count("bridge.p.resume_merge") == 2  # old tail + joiner
    assert lan.tracer.select(category="tcp.rst_received", node="client") == []
    return _digest(lan.tracer, lan.sim.events_processed)


def _connect_out_crash_secondary():
    """§7.2: the pair connects out (``role="client"``) and pushes to an
    unreplicated back end; the secondary dies mid-stream."""
    from tests.util import CLIENT_IP

    size = 150_000
    lan = ReplicatedLan(seed=13, failover_ports=(2000,))
    lan.start_detectors()
    blob = bulk.pattern_bytes(size, 4)
    replies = {}

    def backend():  # the unreplicated server "T" runs on the client host
        listening = ListeningSocket.listen(lan.client, 7000)
        sock = yield from listening.accept()
        data = yield from sock.recv_exactly(size)
        yield from sock.send_all(b"ack:" + hashlib.sha256(data).digest())
        yield from sock.close_and_wait()
        listening.close()
        return data

    def replica_app(host):
        sock = SimSocket.connect(host, CLIENT_IP, 7000, local_port=2000, min_rto=0.05)
        yield from sock.wait_connected()
        yield from sock.send_all(blob)
        replies[host.name] = yield from sock.recv_exactly(36)
        yield from sock.close_and_wait()

    lan.pair.run_app(replica_app, "outbound")
    lan.sim.schedule(0.006, lan.pair.crash_secondary)
    (data,) = run_all(lan.sim, [backend()], until=30.0)
    assert data == blob
    assert replies == {"primary": b"ack:" + hashlib.sha256(blob).digest()}
    (created,) = lan.tracer.select(category="bridge.p.conn_created")
    assert created.detail["role"] == "client"
    assert lan.tracer.count("bridge.p.flushed") == 1
    return _digest(lan.tracer, lan.sim.events_processed)


def _telemetry_remerge():
    """A pull through the pair with metrics and spans on: the secondary
    dies (§6), restarts and remerges.  The digest covers what each of the
    three consumers saw — the trace, the ``bridge.*``/``queue.*`` metric
    families, and every span in recording order with its drawn ids."""
    from repro.harness.topology import CLIENT_IP, Lan
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.spans import flow_key

    size = 1_200_000
    metrics = MetricsRegistry()
    lan = Lan(seed=17, record_traces=True, metrics=metrics,
              span_sample_rate=1.0, segment_name="eth0")
    client_host = lan.add_host("client", 1, CLIENT_IP, gratuitous_apply_delay=300e-6)
    lan.add_pair((PORT,), detector_interval=0.005, detector_timeout=0.020)
    lan.warm_arp()
    lan.start_detectors()
    blob = bulk.pattern_bytes(size, 6)

    def resume_source(host, sock, resume):
        if resume.written == 0 and resume.read < 4:
            yield from sock.recv_exactly(4 - resume.read)
        yield from sock.send_all(blob[resume.written:])
        yield from sock.close_and_wait()

    lan.pair.set_resume_app(resume_source)
    lan.pair.run_app(lambda host: bulk.source_server(host, PORT, size, salt=6))

    def client():
        root = lan.spans.trace_root("workload.session", lan.sim.now, "client")
        sock = SimSocket.connect(client_host, lan.server_ip, PORT, min_rto=0.05)
        lan.spans.bind_flow(
            flow_key(sock.conn.local_ip, sock.conn.local_port, lan.server_ip, PORT),
            root,
        )
        yield from sock.wait_connected()
        yield from sock.send_all(b"PULL")
        data = yield from sock.recv_exactly(size)
        yield from sock.close_and_wait()
        lan.spans.finish(root, lan.sim.now)
        return data

    lan.sim.schedule(0.010, lan.pair.crash_secondary)
    lan.sim.schedule(0.050, lan.secondary.restart)
    lan.sim.schedule(0.070, lan.pair.reintegrate)
    (data,) = run_all(lan.sim, [client()], until=60.0)
    assert data == blob
    assert lan.tracer.count("bridge.p.resume_merged") == 1
    families = {
        name: value for name, value in metrics.snapshot().items()
        if name.startswith(("bridge.", "queue."))
    }
    assert families["bridge.segments_merged{host=primary}"] > 0
    spans = [
        (span.name, span.host, span.start, span.end, span.trace_id,
         span.span_id, span.parent_id, sorted(span.attrs.items()))
        for span in lan.spans.finished_spans()
    ]
    names = {span[0] for span in spans}
    assert {"bridge.conn_created", "bridge.syn_merged", "bridge.matched",
            "bridge.flushed"} <= names
    return _digest(
        lan.tracer, lan.sim.events_processed,
        json.dumps(families, sort_keys=True), spans,
    )


BRIDGE_SCENARIOS = {
    "chaos_crash_secondary": lambda: _chaos("midpoint", "crash-secondary"),
    "chaos_crash_secondary_pull": lambda: _chaos(
        "midpoint", "crash-secondary", direction="download"),
    "chain_splice": _chain_splice,
    "connect_out_crash_secondary": _connect_out_crash_secondary,
    "telemetry_remerge": _telemetry_remerge,
}


@pytest.mark.parametrize("name", sorted(BRIDGE_SCENARIOS))
def test_bridge_paths_match_parent_golden(name):
    assert BRIDGE_SCENARIOS[name]() == GOLDEN_BRIDGE_SHA256[name]
