"""Daisy-chained N-way replication (the paper's §1 extension).

Three- and four-replica chains surviving single and double failures in
every position, with byte-exact streams throughout.
"""

import pytest

from repro.apps import bulk
from repro.failover.chain import ReplicatedChain
from repro.harness.topology import Lan
from repro.net.addresses import Ipv4Address
from repro.net.host import Host
from repro.sim.process import spawn
from repro.tcp.socket_api import ListeningSocket, SimSocket
from tests.util import mac

PORT = 80
CLIENT_IP = Ipv4Address("10.0.0.1")


class ChainLan(Lan):
    def __init__(self, replicas=3, seed=0):
        super().__init__(seed, record_traces=True, segment_name="eth0")
        self.client = self._station("client", 1, CLIENT_IP,
                                    gratuitous_apply_delay=300e-6)
        self.replicas = [
            self._station(f"replica{i}", 10 + i, Ipv4Address(f"10.0.0.{10 + i}"))
            for i in range(replicas)
        ]
        self.warm_arp()
        self.chain = ReplicatedChain(
            self.replicas,
            failover_ports=[PORT],
            detector_interval=0.005,
            detector_timeout=0.020,
        )
        self.chain.start_detectors()
        self.server_ip = self.chain.service_ip

    def _station(self, name, index, ip, **kwargs):
        # Name-seeded host generators, not registry streams: the chain
        # digest in tests/differential pins the ISNs these draw.
        return self.attach(Host(self.sim, name, mac(index), tracer=self.tracer,
                                **kwargs), ip)


def pull(lan, size, crashes=(), until=120.0):
    """Stream ``size`` bytes to the client; ``crashes`` = [(t, index)]."""
    lan.chain.run_app(lambda host: bulk.source_server(host, PORT, size))

    box = {}

    def client():
        sock = SimSocket.connect(lan.client, lan.server_ip, PORT, min_rto=0.05)
        yield from sock.wait_connected()
        yield from sock.send_all(b"PULL")
        data = yield from sock.recv_exactly(size)
        yield from sock.close_and_wait()
        box["data"] = data

    spawn(lan.sim, client(), "chain-client")
    for at, index in crashes:
        lan.sim.schedule(at, lan.chain.crash, lan.replicas[index])
    lan.sim.run_until(lambda: "data" in box, timeout=until)
    assert "data" in box, "client stream did not complete"
    lan.sim.run(until=lan.sim.now + 0.25)  # let late failovers settle
    return box["data"]


def test_three_way_chain_fault_free():
    lan = ChainLan(replicas=3)
    size = 150_000
    data = pull(lan, size)
    assert data == bulk.pattern_bytes(size)


def test_three_way_chain_all_replicas_received_upload():
    lan = ChainLan(replicas=3)
    received = {}

    def sink_app(host):
        def app():
            listening = ListeningSocket.listen(host, PORT)
            sock = yield from listening.accept()
            data = bytearray()
            while True:
                chunk = yield from sock.recv(65536)
                if not chunk:
                    break
                data.extend(chunk)
            received[host.name] = bytes(data)
            yield from sock.close_and_wait()
        return app()

    lan.chain.run_app(sink_app)
    blob = bulk.pattern_bytes(120_000)

    def client():
        sock = SimSocket.connect(lan.client, lan.server_ip, PORT)
        yield from sock.wait_connected()
        yield from sock.send_all(blob)
        yield from sock.close_and_wait()

    spawn(lan.sim, client(), "up-client")
    lan.sim.run_until(lambda: len(received) == 3, timeout=60.0)
    assert received.get("replica0") == blob
    assert received.get("replica1") == blob
    assert received.get("replica2") == blob


@pytest.mark.parametrize("victim", [0, 1, 2])
def test_three_way_chain_single_failure_any_position(victim):
    """Head, middle or tail dies mid-stream: the client never notices."""
    lan = ChainLan(replicas=3, seed=victim)
    size = 300_000
    data = pull(lan, size, crashes=[(0.050, victim)])
    assert data == bulk.pattern_bytes(size)
    resets = lan.tracer.select(category="tcp.rst_received", node="client")
    assert resets == []


def test_three_way_chain_double_failure_sequential():
    """Head dies, then the promoted head dies too: the tail serves alone."""
    lan = ChainLan(replicas=3)
    size = 400_000
    data = pull(lan, size, crashes=[(0.050, 0), (0.250, 1)], until=240.0)
    assert data == bulk.pattern_bytes(size)
    # The last replica ended up owning the service address.
    assert lan.replicas[2].ip.owns(lan.server_ip)


def test_three_way_chain_double_failure_middle_then_tail():
    lan = ChainLan(replicas=3)
    size = 300_000
    data = pull(lan, size, crashes=[(0.050, 1), (0.250, 2)], until=240.0)
    assert data == bulk.pattern_bytes(size)
    head_bridge = lan.chain.bridges["replica0"]
    assert head_bridge.secondary_down  # §6 ran after the chain emptied


def test_four_way_chain_fault_free():
    lan = ChainLan(replicas=4)
    size = 150_000
    data = pull(lan, size)
    assert data == bulk.pattern_bytes(size)


def test_four_way_chain_middle_failure():
    lan = ChainLan(replicas=4)
    size = 300_000
    data = pull(lan, size, crashes=[(0.050, 2)])
    assert data == bulk.pattern_bytes(size)


def test_chain_rejects_single_member():
    lan = ChainLan(replicas=2)
    with pytest.raises(ValueError):
        ReplicatedChain([lan.replicas[0]])


def test_two_member_chain_equals_pair_semantics():
    """A 2-chain is the paper's primary/secondary pair."""
    lan = ChainLan(replicas=2)
    size = 200_000
    data = pull(lan, size, crashes=[(0.040, 0)])
    assert data == bulk.pattern_bytes(size)
    assert lan.replicas[1].ip.owns(lan.server_ip)


# ----------------------------------------------------------------------
# splice-in: a restarted member rejoins at the tail, restoring K replicas
# ----------------------------------------------------------------------


def test_chain_splice_in_restores_tail_after_crash():
    """Tail crashes mid-download, restarts, and splices back in as the
    new tail; a *second* member then crashes and the restored redundancy
    carries the byte-exact stream to the end."""
    lan = ChainLan(replicas=3)
    size = 2_500_000
    blob = bulk.pattern_bytes(size)
    tail = lan.replicas[2]

    def resume_src(host, sock, resume):
        def app():
            if resume.written == 0 and resume.read < 4:
                yield from sock.recv_exactly(4 - resume.read)
            yield from sock.send_all(blob[resume.written:])
            yield from sock.close_and_wait()
        return app()

    lan.sim.schedule(0.010, lan.chain.crash, tail)
    lan.sim.schedule(0.110, tail.restart)
    lan.sim.schedule(
        0.140, lambda: lan.chain.splice_in(tail, resume_app=resume_src)
    )
    # Second failure after redundancy is back: the middle member dies.
    lan.sim.schedule(0.280, lan.chain.crash, lan.replicas[1])

    data = pull(lan, size, until=120.0)
    assert data == blob

    starts = lan.tracer.select(category="reintegration.start")
    assert starts and starts[0].detail["case"] == "splice"
    assert lan.tracer.select(category="reintegration.installed")
    assert lan.tracer.select(category="reintegration.armed")
    # The restarted host is live and holds the tail position again.
    assert lan.chain.alive[tail.name]
    assert lan.chain.hosts[-1] is tail
    assert lan.tracer.select(category="tcp.rst_received", node="client") == []
