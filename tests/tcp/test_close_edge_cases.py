"""Termination edge cases: simultaneous close, TIME_WAIT re-ACK, CLOSING."""

import gc
import weakref

import pytest

from repro.net.packet import Ipv4Datagram
from repro.obs.metrics import MetricsRegistry
from repro.tcp.connection import TcpState
from repro.tcp.socket_api import ListeningSocket, SimSocket
from tests.util import SERVER_IP, ReplicatedLan, TwoHostLan, run_all


def _two_host_lan(metrics):
    lan = TwoHostLan(metrics=metrics)
    return lan, [lan.server], lambda app: lan.server.spawn(app(lan.server), "server")


def _replicated_lan(metrics):
    lan = ReplicatedLan(failover_ports=(80,), metrics=metrics)
    return lan, [lan.primary, lan.secondary], lan.pair.run_app


@pytest.mark.parametrize("build", [_two_host_lan, _replicated_lan])
def test_a_clean_close_retransmits_nothing_and_frees_every_tcb(build):
    """The client sends a request and closes; the server reads to EOF and
    holds its own FIN back past an RTO.  Nothing is lost, so nothing is
    retransmitted, and once both FINs are acknowledged no TCB outlives the
    close: TIME_WAIT is the layer's linger record, not a block on a timer."""
    metrics = MetricsRegistry()
    lan, servers, run_app = build(metrics)
    conns = []

    def server(host):
        listening = ListeningSocket.listen(host, 80)
        sock = yield from listening.accept()
        conns.append(weakref.ref(sock.conn))
        assert (yield from sock.recv_until_eof()) == b"request"
        yield 1.0  # the client waits in FIN_WAIT_2 past its RTO
        yield from sock.close_and_wait()
        listening.close()

    def client():
        sock = SimSocket.connect(lan.client, SERVER_IP, 80)
        conns.append(weakref.ref(sock.conn))
        yield from sock.wait_connected()
        yield from sock.send_all(b"request")
        yield from sock.close_and_wait()

    run_app(server)
    run_all(lan.sim, [client()], until=30.0)
    lan.run(until=lan.sim.now + 1.0)
    for host in [lan.client, *servers]:
        assert metrics.snapshot()[f"tcp.retransmits{{host={host.name}}}"] == 0, host.name
        assert host.tcp.connections == {}
    gc.collect()
    assert len(conns) == 1 + len(servers)
    assert [ref() for ref in conns] == [None] * len(conns)


def test_simultaneous_close_both_sides():
    """Both endpoints close at the same instant → CLOSING → TIME_WAIT."""
    lan = TwoHostLan()
    conns = {}

    def server():
        listening = ListeningSocket.listen(lan.server, 80)
        sock = yield from listening.accept()
        conns["server"] = sock.conn
        yield 0.01
        yield from sock.close_and_wait()

    def client():
        sock = SimSocket.connect(lan.client, SERVER_IP, 80)
        yield from sock.wait_connected()
        conns["client"] = sock.conn
        yield 0.0102  # closes virtually simultaneously with the server
        yield from sock.close_and_wait()

    run_all(lan.sim, [server(), client()], until=30.0)
    assert conns["client"].state == TcpState.CLOSED
    assert conns["server"].state == TcpState.CLOSED
    assert lan.client.tcp.connections == {}
    assert lan.server.tcp.connections == {}


def test_time_wait_reacks_retransmitted_fin():
    """The active closer in TIME_WAIT must re-ACK a retransmitted FIN."""
    lan = TwoHostLan()
    dropped = {"count": 0}

    def drop_final_acks(frame):
        payload = frame.payload
        if not isinstance(payload, Ipv4Datagram):
            return False
        segment = getattr(payload, "payload", None)
        if segment is None:
            return False
        # Drop the client's ACK of the server FIN (pure ACK, post-FIN).
        if (
            segment.has_ack
            and not segment.payload
            and not segment.fin
            and not segment.syn
            and dropped["count"] < 1
            and payload.src == lan.client.ip.primary_address()
            and lan.server.tcp.connections
            and any(
                c.state in (TcpState.LAST_ACK,)
                for c in lan.server.tcp.connections.values()
            )
        ):
            dropped["count"] += 1
            return True
        return False

    lan.server.nic.rx_drop_hook = drop_final_acks

    def server():
        listening = ListeningSocket.listen(lan.server, 80)
        sock = yield from listening.accept()
        sock.conn.min_rto = 0.05
        sock.conn.rto.min_rto = 0.05
        yield from sock.recv_until_eof()
        yield from sock.close_and_wait()
        return sock.conn

    def client():
        sock = SimSocket.connect(lan.client, SERVER_IP, 80)
        yield from sock.wait_connected()
        yield from sock.send_all(b"x")
        yield from sock.close_and_wait()
        return sock.conn

    server_conn, client_conn = run_all(lan.sim, [server(), client()], until=30.0)
    lan.run(until=lan.sim.now + 5.0)
    # The server's FIN retransmission was eventually ACKed out of TIME_WAIT.
    assert dropped["count"] == 1
    assert server_conn.state == TcpState.CLOSED


def test_abort_during_half_close():
    lan = TwoHostLan()

    def server():
        listening = ListeningSocket.listen(lan.server, 80)
        sock = yield from listening.accept()
        yield from sock.recv(10)
        yield 0.01
        sock.abort()
        return sock.conn

    def client():
        sock = SimSocket.connect(lan.client, SERVER_IP, 80)
        yield from sock.wait_connected()
        yield from sock.send_all(b"data")
        sock.close()  # FIN_WAIT_1/2
        yield 0.2
        return sock.conn

    server_conn, client_conn = run_all(lan.sim, [server(), client()], until=30.0)
    assert client_conn.reset_received
    assert client_conn.state == TcpState.CLOSED


def test_close_with_unsent_data_flushes_first():
    """close() after a large write still delivers every byte before FIN."""
    lan = TwoHostLan()
    blob = bytes(i & 0xFF for i in range(80_000))

    def server():
        listening = ListeningSocket.listen(lan.server, 80)
        sock = yield from listening.accept()
        data = yield from sock.recv_until_eof()
        yield from sock.close_and_wait()
        return data

    def client():
        sock = SimSocket.connect(lan.client, SERVER_IP, 80)
        yield from sock.wait_connected()
        yield from sock.send_all(blob)
        yield from sock.close_and_wait()  # immediate close after last write

    data, _ = run_all(lan.sim, [server(), client()], until=60.0)
    assert data == blob


def test_double_close_is_harmless():
    lan = TwoHostLan()
    lan.server.tcp.listen(80)
    conn = lan.client.tcp.connect(SERVER_IP, 80)
    lan.run(until=0.5)
    conn.close()
    conn.close()  # no error, no duplicate FIN state corruption
    lan.run(until=1.5)
    assert conn.state in (TcpState.FIN_WAIT_1, TcpState.FIN_WAIT_2)
