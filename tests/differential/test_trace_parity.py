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

The fourth set pins *TCP's slow paths* before the RFC 793/5961 machine
moved out of ``TcpConnection``: persist, RTO give-up, fast retransmit,
CLOSING, FIN retransmission, challenge ACKs, PMTUD and snapshot install.

Eleven digests across the four sets were re-recorded once, when a closed
block stopped outliving its close: the runs lost RTOs that sent nothing
(``tcp.rtx`` in TIME_WAIT or FIN_WAIT_2) and the timer events behind them,
and gained no record (EXPERIMENTS.md lists each, old → new).  Four bridge
digests were re-recorded when a §6 connection's FIN exchange began to
delete its bridge state: each run gained one ``bridge.p.conn_deleted
reason=closed`` record, and nothing else moved.
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
    "fig3_push": "cf72ec163d396d9e113b22918463c54d638269596c455fdd45676ab7300b5c64",
    "crash_pull": "537405f84d164e599ceae116fff7e81cdfe7c9830fc5fb1bb2d095605190ff8e",
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
    for record in lan.tracer.select(category="tcp.tx"):
        assert type(record.detail["seg"]) is str
        assert type(record.detail["dst"]) is str
    lan = TwoHostLan()
    lan.server.crash()
    lan.client.tcp.connect(lan.server.ip.primary_address(), PORT, initial_rto=0.1)
    lan.run(until=1.0)
    retransmits = lan.tracer.select(category="tcp.rtx")
    assert retransmits, "a SYN into a dead host must go out again on its RTO"
    for record in retransmits:
        assert type(record.detail["conn"]) is str
        assert record.detail["conn"].startswith("Tcp[")


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
    "lan_echo": "69e9e2bb61aee79017b7bcc9183c8a3c3680d5b25207ec42c0fc80b4c7b5ddbb",
    "wan_push": "19e07b9ae8befe072db59fed3d7815c242710a16780e586139629946f2bbf705",
    "chaos_crash_primary": "d285389c9b4402f03d132aa8e8f767a27ca49ad64002d1aee2d7b0fd0b82ce5a",
    "chaos_reintegrate": "3951cdd8f9db8e168ec168e0a4349d1384c17b163f1dd0f20a0a3210fe20daf5",
    "attack_rst_sweep": "37bdcf792e0ca5f4de1b4db2ae1ceec8680460ddfa41205723e2388f654779b0",
    "attack_flow_poison": "b03d80175558e3ce5ad655ac1c4c6073f789f3419833645a1f2af47b39a98078",
    "clients_bridge": "c60e99d1f7cd7cf33b80351cbd2b07fbc24f879f6c7c4c08c424ac58b05611ff",
    "clients_dns": "e025b18e743fb31c08e8514c9f78f62221583a6c2366c8782bdedd24bcfd93af",
    "capacity_storm": "5f1fa0647df40a68f451a127b6f05fb4c7ead1f52f7b27df1d96c3f22a4e99a3",
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
    "chaos_crash_secondary": "d0818850e5a4e3f4e3849e285bc17d4a3e78f738b20314a3fd79a36d90c03c74",
    "chaos_crash_secondary_pull": "63b04be7198cd49a5fd6243ea854e8873ca37a94460921b29dd10fac04079151",
    "chain_splice": "055bd9f3616176d01ddfcd8371fdfe34399d2628645c51561eacc7f986b3240c",
    "connect_out_crash_secondary": "839895e961bd21fd2a31921e58b3672dc38157bfee1e7f56a5dafdb250c2be41",
    "telemetry_remerge": "950a34858113e1feaa96fe83ea15ea9e4fc44989d0fd168dcc270399da78b866",
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


# ----------------------------------------------------------------------
# TCP goldens: scenarios built to reach the stack's slow paths (persist,
# RTO give-up, fast retransmit, CLOSING, FIN retransmission, RFC 5961
# challenges, PMTUD, snapshot install), hashed through the trace, the
# ``tcp.*`` metrics and the event count (which pins timer scheduling) —
# pinned at the parent of the commit that moved the machine out of
# ``TcpConnection``
# ----------------------------------------------------------------------

GOLDEN_TCP_SHA256 = {
    "zero_window_persist": "de3122701b62bada31ad4fafe3050f6fd0bf1e3bfd65300818a2af4058be14a0",
    "syn_give_up": "83250a5b1ec1c2dafe7f85439d4f1b8a25b9652d424f896733447fad72323201",
    "data_give_up": "365c9ad353847fafc79fca86607079d79b73801a7db19b0eee6054919596dad2",
    "fast_retransmit": "8226f46fae9253e1579109e058b921812e17719641451b99b048960cd3b3e3ad",
    "simultaneous_close": "ed4b6f740a04c679772109f6955fbcdb5ce1da3c23ebae814899461caa5377db",
    "fin_retransmitted": "be10931e44f4e11bcd8544f1a1fa96cea80dcd118cc1d619e3f044faa5e231c2",
    "time_wait_reack": "107bedf895228969b616e6e903c78baa6cb96fe5c9bbebcd63d1b0f51b3813a6",
    "rfc5961_challenges": "9b7cfad6196c6c48e0c18e20b0a47bbbd786832805744cc1954ef69135f2b60d",
    "pmtud_clamp": "85cb06698d7316fc6b409af3711047185dd3a3d258825bca6ceb491d03e0c866",
    "install_then_rto": "1b16b3c6feaf159e8532abeaae434d0547cbe2e8b134a1f1f73b021ce0371e6f",
}


def _tcp_lan(seed):
    from repro.obs.metrics import MetricsRegistry

    return TwoHostLan(seed=seed, metrics=MetricsRegistry())


def _tcp_digest(lan, *scalars):
    families = {
        name: value for name, value in lan.metrics.snapshot().items()
        if name.startswith("tcp.")
    }
    return _digest(
        lan.tracer, lan.sim.events_processed,
        json.dumps(families, sort_keys=True), *scalars,
    )


def _segment_dropper(host, wanted, count=1):
    """Drop the first ``count`` TCP segments arriving at ``host`` for which
    ``wanted(segment)`` holds; returns the list of dropped segments."""
    from repro.net.packet import Ipv4Datagram

    dropped = []

    def hook(frame):
        segment = getattr(frame.payload, "payload", None)
        if (isinstance(frame.payload, Ipv4Datagram) and hasattr(segment, "seq")
                and len(dropped) < count and wanted(segment)):
            dropped.append(segment)
            return True
        return False

    host.nic.rx_drop_hook = hook
    return dropped


def _sink(lan, results, linger=0.0):
    listening = ListeningSocket.listen(lan.server, PORT)
    sock = yield from listening.accept()
    if linger:
        yield linger
    results["server"] = yield from sock.recv_until_eof()
    yield from sock.close_and_wait()
    results["server_conn"] = sock.conn


def _pusher(lan, blob, results, **options):
    sock = SimSocket.connect(lan.client, lan.server.ip.primary_address(), PORT, **options)
    yield from sock.wait_connected()
    yield from sock.send_all(blob)
    yield from sock.close_and_wait()
    results["client_conn"] = sock.conn


def _zero_window_persist():
    """A 2 KB receive window closes for 8 s: persist probes back off to
    the cap, the window reopens, the stream completes."""
    lan = _tcp_lan(21)
    lan.server.tcp.conn_defaults["recv_buffer_size"] = 2048
    blob, results = bulk.pattern_bytes(12_000, 2), {}
    run_all(lan.sim, [_sink(lan, results, linger=8.0), _pusher(lan, blob, results)],
            until=120.0)
    assert results["server"] == blob
    assert lan.tracer.count("tcp.zwp") >= 5
    return _tcp_digest(lan)


def _syn_give_up():
    """SYNs into a dead host: RTO back-off to SYN_MAX_RETRANSMITS."""
    lan = _tcp_lan(22)
    lan.server.crash()
    conn = lan.client.tcp.connect(lan.server.ip.primary_address(), PORT, initial_rto=0.1)
    lan.run(until=60.0)
    assert conn.state is TcpState.CLOSED and not conn.established_event.ok
    assert lan.tracer.count("tcp.rtx") == conn.SYN_MAX_RETRANSMITS
    assert lan.tracer.count("tcp.give_up") == 1
    return _tcp_digest(lan, conn.retransmissions)


def _data_give_up():
    """The peer dies under an established sender: data RTO back-off to
    MAX_RETRANSMITS, then the writer sees the error."""
    lan = _tcp_lan(23)
    lan.server.tcp.listen(PORT)
    conn = lan.client.tcp.connect(lan.server.ip.primary_address(), PORT, min_rto=0.05)
    lan.run(until=1.0)
    lan.server.crash()
    assert conn.write(bulk.pattern_bytes(5_000, 3)) == 5_000
    lan.run(until=600.0)
    assert conn.state is TcpState.CLOSED and conn.reset_received
    assert lan.tracer.count("tcp.rtx") == conn.MAX_RETRANSMITS
    assert lan.tracer.count("tcp.give_up") == 1
    return _tcp_digest(lan, conn.retransmissions, conn.rto.backoff)


def _fast_retransmit():
    """One mid-stream data segment lost under a 1 s RTO floor: three
    duplicate ACKs recover it."""
    lan = _tcp_lan(24)
    blob, results = bulk.pattern_bytes(120_000, 4), {}
    seen = []
    _segment_dropper(
        lan.server, lambda s: bool(s.payload) and (seen.append(s) or len(seen) == 31))
    run_all(lan.sim, [_sink(lan, results), _pusher(lan, blob, results, min_rto=1.0)],
            until=120.0)
    assert results["server"] == blob
    assert lan.tracer.count("tcp.fast_rtx") >= 1
    return _tcp_digest(lan, results["client_conn"].cc.fast_retransmits)


def _simultaneous_close():
    """Both ends close at the same instant: FIN_WAIT_1 → CLOSING →
    TIME_WAIT on each side."""
    from repro.sim.process import spawn

    lan = _tcp_lan(25)
    conns = {}

    def server():
        listening = ListeningSocket.listen(lan.server, PORT)
        sock = conns["server"] = yield from listening.accept()
        yield 1.0 - lan.sim.now
        yield from sock.close_and_wait()

    def client():
        sock = conns["client"] = SimSocket.connect(
            lan.client, lan.server.ip.primary_address(), PORT)
        yield from sock.wait_connected()
        yield 1.0 - lan.sim.now
        yield from sock.close_and_wait()

    done = [spawn(lan.sim, app(), app.__name__).done_event for app in (server, client)]
    assert lan.sim.run_until(
        lambda: len(conns) == 2
        and all(sock.conn.state is TcpState.CLOSING for sock in conns.values()),
        timeout=5.0,
    )
    assert lan.sim.run_until(lambda: all(e.triggered for e in done), timeout=5.0)
    lan.run(until=lan.sim.now + 2.0)
    assert lan.client.tcp.connections == {} and lan.server.tcp.connections == {}
    assert all(sock.conn.state is TcpState.CLOSED for sock in conns.values())
    return _tcp_digest(lan)


def _fin_retransmitted():
    """A FIN sent on its own is lost, and so are the first two segments
    that acknowledge its retransmission: the FIN goes out three times
    after RTOs, always in its original slot, and a peer that already
    consumed it re-ACKs the duplicate."""
    lan = _tcp_lan(26)
    blob, results = bulk.pattern_bytes(3_000, 5), {}
    fins = _segment_dropper(lan.server, lambda s: s.fin)
    acks = _segment_dropper(
        lan.client,
        lambda s: bool(fins) and s.has_ack and s.ack == fins[0].seq_end,
        count=2,
    )

    def client():
        sock = SimSocket.connect(
            lan.client, lan.server.ip.primary_address(), PORT, min_rto=0.05)
        yield from sock.wait_connected()
        yield from sock.send_all(blob)
        yield 0.3  # past the delayed ACK: all acknowledged, the FIN travels alone
        yield from sock.close_and_wait()
        return sock.conn

    _, conn = run_all(lan.sim, [_sink(lan, results), client()], until=60.0)
    assert results["server"] == blob and len(fins) == 1 and len(acks) == 2
    sent = [record.detail["seg"]
            for record in lan.tracer.select(category="tcp.tx", node="client")]
    fin_slots = [int(seg.split("seq=")[1].split()[0]) for seg in sent if "FIN" in seg]
    assert len(fin_slots) == 3 and len(set(fin_slots)) == 1, fin_slots
    return _tcp_digest(lan, conn.retransmissions)


def _time_wait_reack():
    """The active closer's last ACK is lost: the passive closer's FIN
    comes back after an RTO and is re-ACKed out of TIME_WAIT."""
    lan = _tcp_lan(27)
    blob, results = b"x", {}

    def last_ack(segment):
        conns = list(lan.server.tcp.connections.values())
        return (not segment.payload and not segment.fin and not segment.syn
                and bool(conns) and conns[0].state is TcpState.LAST_ACK)

    lost = _segment_dropper(lan.server, last_ack)
    run_all(lan.sim, [_sink(lan, results), _pusher(lan, blob, results)], until=30.0)
    lan.run(until=lan.sim.now + 5.0)
    assert len(lost) == 1 and results["server_conn"].state is TcpState.CLOSED
    assert lan.client.tcp.linger_acks_sent >= 1
    return _tcp_digest(lan)


def _rfc5961_challenges():
    """Forged in-window RSTs and SYNs against an established TCB: challenge
    ACKs up to CHALLENGE_LIMIT, silence past it, a fresh budget one window
    later, and the exact-match RST that still resets."""
    from repro.tcp.segment import FLAG_RST, FLAG_SYN, TcpSegment
    from repro.tcp.seqnum import seq_add
    from tests.util import CLIENT_IP, SERVER_IP

    lan = _tcp_lan(28)
    lan.server.tcp.listen(PORT)
    client_conn = lan.client.tcp.connect(SERVER_IP, PORT)
    lan.run(until=1.0)
    (server_conn,) = lan.server.tcp.connections.values()

    def forge(offset, flags):
        segment = TcpSegment(
            src_port=client_conn.local_port, dst_port=PORT,
            seq=seq_add(server_conn.rcv_nxt, offset), ack=0, flags=flags,
            window=0xFFFF if flags & FLAG_SYN else 0,
        )
        lan.server.tcp.receive_segment(
            segment.sealed(CLIENT_IP, SERVER_IP), CLIENT_IP, SERVER_IP)

    for offset in (1, 1000, 30_000, 31_000, 70_000):  # the last is out of window
        forge(offset, FLAG_RST)
    forge(64, FLAG_SYN)
    limit = server_conn.CHALLENGE_LIMIT
    assert (server_conn.challenge_acks_sent, server_conn.challenge_acks_suppressed) == (limit, 2)
    lan.run(until=lan.sim.now + server_conn.CHALLENGE_WINDOW + 0.1)
    forge(64, FLAG_SYN)
    forge(5, FLAG_RST)
    assert server_conn.challenge_acks_sent == limit + 2
    assert server_conn.state is TcpState.ESTABLISHED and not server_conn.reset_received
    lan.run(until=lan.sim.now + 0.1)
    forge(0, FLAG_RST)
    assert server_conn.state is TcpState.CLOSED and server_conn.reset_received
    lan.run(until=lan.sim.now + 1.0)
    return _tcp_digest(lan, client_conn.state.value)


def _pmtud_clamp():
    """Mid-upload ICMP frag-needed quotes: one outside the outstanding
    range and one below the IPv4 minimum are rejected, a valid one clamps
    the MSS and the rest of the stream goes out in smaller segments."""
    from repro.sim.process import spawn
    from repro.tcp.seqnum import seq_add
    from tests.util import CLIENT_IP, SERVER_IP

    lan = _tcp_lan(29)
    blob, results, state = bulk.pattern_bytes(200_000, 6), {}, {}

    def client():
        sock = state["sock"] = SimSocket.connect(lan.client, SERVER_IP, PORT)
        yield from sock.wait_connected()
        yield from sock.send_all(blob)
        yield from sock.close_and_wait()

    spawn(lan.sim, _sink(lan, results), "sink")
    spawn(lan.sim, client(), "pusher")
    assert lan.sim.run_until(
        lambda: "sock" in state and state["sock"].conn.send_buffer.in_flight > 20_000,
        timeout=5.0,
    )
    conn = state["sock"].conn

    def hint(quoted_seq, mtu):
        return lan.client.tcp.icmp_frag_needed(
            CLIENT_IP, conn.local_port, SERVER_IP, PORT, quoted_seq, mtu)

    assert not hint(seq_add(conn.snd_max, 10), 576)
    assert not hint(conn.snd_una, 68)
    assert hint(conn.snd_una, 1000) and conn.mss == 960
    assert not hint(conn.snd_una, 1200)  # never upward
    assert lan.sim.run_until(lambda: "server_conn" in results, timeout=60.0)
    lan.run(until=lan.sim.now + 0.25)
    assert results["server"] == blob
    assert (lan.client.tcp.pmtud_accepted, lan.client.tcp.pmtud_rejected) == (1, 3)
    clamped = [record for record in lan.tracer.select(category="tcp.tx", node="client")
               if "len=960)" in record.detail["seg"]]
    assert conn.mss == 960 and len(clamped) > 100
    return _tcp_digest(lan, conn.mss)


def _install_then_rto():
    """A TCB exported with bytes in flight and bytes unread, installed on
    the restarted host: the in-flight bytes go out again on the installed
    TCB's first RTO, the unread ones are still there to read."""
    from tests.util import SERVER_IP

    lan = _tcp_lan(30)
    lan.server.tcp.listen(PORT)
    client_conn = lan.client.tcp.connect(SERVER_IP, PORT)
    lan.run(until=1.0)
    (server_conn,) = lan.server.tcp.connections.values()
    unread, payload = b"not read yet", bulk.pattern_bytes(3_000, 7)
    client_conn.write(unread)
    lan.run(until=lan.sim.now + 0.5)
    lost = _segment_dropper(lan.client, lambda s: bool(s.payload), count=2)
    server_conn.write(payload)
    lan.run(until=lan.sim.now + 0.01)
    lan.server.crash()
    snapshot = server_conn.export_state()
    assert len(lost) == 2 and snapshot.send_next_offset == 2920  # 80 bytes never sent
    assert snapshot.recv_pending == unread
    lan.server.restart()
    installed = lan.server.tcp.install_connection(snapshot)

    def drain():
        sock, data = SimSocket(client_conn), bytearray()
        while len(data) < len(payload):
            data.extend((yield from sock.recv(65536)))
        return bytes(data)

    (data,) = run_all(lan.sim, [drain()], until=30.0)
    assert data == payload and installed.read(100) == unread
    assert lan.tracer.count("tcp.installed") == 1
    assert lan.tracer.select(category="tcp.rtx", node="server")
    return _tcp_digest(lan, installed.retransmissions)


TCP_SCENARIOS = {
    "zero_window_persist": _zero_window_persist,
    "syn_give_up": _syn_give_up,
    "data_give_up": _data_give_up,
    "fast_retransmit": _fast_retransmit,
    "simultaneous_close": _simultaneous_close,
    "fin_retransmitted": _fin_retransmitted,
    "time_wait_reack": _time_wait_reack,
    "rfc5961_challenges": _rfc5961_challenges,
    "pmtud_clamp": _pmtud_clamp,
    "install_then_rto": _install_then_rto,
}


@pytest.mark.parametrize("name", sorted(TCP_SCENARIOS))
def test_tcp_slow_paths_match_parent_golden(name):
    assert TCP_SCENARIOS[name]() == GOLDEN_TCP_SHA256[name]
