"""Integration tests for the TCP connection state machine over the wire."""

import pytest

from repro.net.addresses import Ipv4Address
from repro.net.faults import Corrupt, has_payload
from repro.tcp.connection import ConnectionReset, TcpState
from repro.tcp.socket_api import ListeningSocket, SimSocket
from tests.util import SERVER_IP, TwoHostLan, run_all, run_process


def test_three_way_handshake_states():
    lan = TwoHostLan()
    listener = lan.server.tcp.listen(80)
    conn = lan.client.tcp.connect(SERVER_IP, 80)
    lan.run(until=1.0)
    assert conn.state == TcpState.ESTABLISHED
    server_conn = next(iter(lan.server.tcp.connections.values()))
    assert server_conn.state == TcpState.ESTABLISHED
    assert server_conn.remote_port == conn.local_port


def test_mss_negotiated_to_minimum():
    lan = TwoHostLan()
    lan.server.tcp.conn_defaults["mss"] = 500
    lan.server.tcp.listen(80)
    conn = lan.client.tcp.connect(SERVER_IP, 80)
    lan.run(until=1.0)
    assert conn.mss == 500
    server_conn = next(iter(lan.server.tcp.connections.values()))
    assert server_conn.mss == 500


def test_connect_to_closed_port_resets():
    lan = TwoHostLan()
    conn = lan.client.tcp.connect(SERVER_IP, 81)
    lan.run(until=2.0)
    assert conn.state == TcpState.CLOSED
    assert conn.reset_received
    assert not conn.established_event.ok


def test_connect_to_dead_host_times_out():
    lan = TwoHostLan()
    lan.server.crash()
    conn = lan.client.tcp.connect(SERVER_IP, 80, initial_rto=0.1)
    lan.run(until=60.0)
    assert conn.state == TcpState.CLOSED
    assert not conn.established_event.ok


def test_data_transfer_both_directions():
    lan = TwoHostLan()

    def server():
        listening = ListeningSocket.listen(lan.server, 80)
        sock = yield from listening.accept()
        data = yield from sock.recv_exactly(5)
        yield from sock.send_all(data.upper())
        yield from sock.close_and_wait()

    def client():
        sock = SimSocket.connect(lan.client, SERVER_IP, 80)
        yield from sock.wait_connected()
        yield from sock.send_all(b"hello")
        reply = yield from sock.recv_exactly(5)
        yield from sock.close_and_wait()
        return reply

    _, reply = run_all(lan.sim, [server(), client()])
    assert reply == b"HELLO"


def test_large_transfer_exceeding_all_windows():
    lan = TwoHostLan()
    blob = bytes(i & 0xFF for i in range(300_000))

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
        yield from sock.close_and_wait()

    data, _ = run_all(lan.sim, [server(), client()], until=120.0)
    assert data == blob


def test_half_close_server_keeps_sending():
    """Client closes its send side; server may still stream (half-close)."""
    lan = TwoHostLan()

    def server():
        listening = ListeningSocket.listen(lan.server, 80)
        sock = yield from listening.accept()
        request = yield from sock.recv_until_eof()  # until client's FIN
        yield from sock.send_all(b"response:" + request)
        yield from sock.close_and_wait()

    def client():
        sock = SimSocket.connect(lan.client, SERVER_IP, 80)
        yield from sock.wait_connected()
        yield from sock.send_all(b"req")
        sock.close()  # half-close: FIN after the request
        data = yield from sock.recv_until_eof()
        return data

    _, data = run_all(lan.sim, [server(), client()])
    assert data == b"response:req"


def test_termination_reaches_time_wait_and_closed():
    lan = TwoHostLan()

    def server():
        listening = ListeningSocket.listen(lan.server, 80)
        sock = yield from listening.accept()
        yield from sock.recv_until_eof()
        yield from sock.close_and_wait()

    def client():
        sock = SimSocket.connect(lan.client, SERVER_IP, 80)
        yield from sock.wait_connected()
        yield from sock.send_all(b"x")
        yield from sock.close_and_wait()
        return sock.conn

    _, conn = run_all(lan.sim, [server(), client()])
    assert conn.terminated_event.triggered and conn.closed_event.triggered
    assert lan.client.tcp.connections == {}
    assert lan.server.tcp.connections == {}


def test_abort_sends_rst_and_peer_sees_reset():
    lan = TwoHostLan()

    def server():
        listening = ListeningSocket.listen(lan.server, 80)
        sock = yield from listening.accept()
        try:
            yield from sock.recv(100)
            return "data"
        except ConnectionReset:
            return "reset"

    def client():
        sock = SimSocket.connect(lan.client, SERVER_IP, 80)
        yield from sock.wait_connected()
        yield 0.01
        sock.abort()

    outcome, _ = run_all(lan.sim, [server(), client()])
    assert outcome == "reset"


def test_write_after_close_rejected():
    lan = TwoHostLan()
    lan.server.tcp.listen(80)
    conn = lan.client.tcp.connect(SERVER_IP, 80)
    lan.run(until=1.0)
    conn.close()
    with pytest.raises(ConnectionError):
        conn.write(b"late")


def test_send_buffer_backpressure_blocks_writer():
    lan = TwoHostLan()
    lan.client.tcp.conn_defaults["send_buffer_size"] = 4096

    progress = []

    def server():
        listening = ListeningSocket.listen(lan.server, 80)
        sock = yield from listening.accept()
        yield 0.5  # do not read for a while: receiver window fills
        data = yield from sock.recv_until_eof()
        yield from sock.close_and_wait()
        return len(data)

    def client():
        sock = SimSocket.connect(lan.client, SERVER_IP, 80)
        yield from sock.wait_connected()
        yield from sock.send_all(b"z" * 200_000)
        progress.append(lan.sim.now)
        yield from sock.close_and_wait()

    total, _ = run_all(lan.sim, [server(), client()], until=120.0)
    assert total == 200_000
    assert progress[0] > 0.5  # writer was actually blocked behind the stall


def test_zero_window_probe_recovers():
    lan = TwoHostLan()
    lan.server.tcp.conn_defaults["recv_buffer_size"] = 2048

    def server():
        listening = ListeningSocket.listen(lan.server, 80)
        sock = yield from listening.accept()
        yield 1.0  # let the window go to zero
        data = yield from sock.recv_until_eof()
        yield from sock.close_and_wait()
        return len(data)

    def client():
        sock = SimSocket.connect(lan.client, SERVER_IP, 80)
        yield from sock.wait_connected()
        yield from sock.send_all(b"q" * 10_000)
        yield from sock.close_and_wait()

    total, _ = run_all(lan.sim, [server(), client()], until=120.0)
    assert total == 10_000
    assert lan.tracer.count("tcp.zwp") >= 1


def test_simultaneous_send_full_duplex():
    lan = TwoHostLan()
    blob_a = bytes((i * 3) & 0xFF for i in range(50_000))
    blob_b = bytes((i * 5) & 0xFF for i in range(50_000))

    def server():
        listening = ListeningSocket.listen(lan.server, 80)
        sock = yield from listening.accept()
        send_proc = lan.server.spawn(sock.send_all(blob_b), "srv-send")
        data = yield from sock.recv_exactly(len(blob_a))
        yield send_proc.done_event
        yield from sock.close_and_wait()
        return data

    def client():
        sock = SimSocket.connect(lan.client, SERVER_IP, 80)
        yield from sock.wait_connected()
        send_proc = lan.client.spawn(sock.send_all(blob_a), "cli-send")
        data = yield from sock.recv_exactly(len(blob_b))
        yield send_proc.done_event
        yield from sock.close_and_wait()
        return data

    got_a, got_b = run_all(lan.sim, [server(), client()], until=120.0)
    assert got_a == blob_a
    assert got_b == blob_b


def test_checksum_corruption_dropped():
    """A corrupted segment is discarded and recovered by retransmission."""
    lan = TwoHostLan()
    lan.attach_checks()
    lan.plane.rule("corrupt", Corrupt(), point="nic:server", match=has_payload, nth=0)

    def server():
        listening = ListeningSocket.listen(lan.server, 80)
        sock = yield from listening.accept()
        data = yield from sock.recv_until_eof()
        yield from sock.close_and_wait()
        return data

    def client():
        sock = SimSocket.connect(lan.client, SERVER_IP, 80)
        yield from sock.wait_connected()
        yield from sock.send_all(b"precious-data")
        yield from sock.close_and_wait()

    data, _ = run_all(lan.sim, [server(), client()], until=60.0)
    assert data == b"precious-data"
    assert lan.tracer.count("tcp.bad_checksum") >= 1
