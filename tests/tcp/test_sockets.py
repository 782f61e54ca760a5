"""Unit tests for the blocking socket facade."""

import hashlib
import tracemalloc

import pytest

from repro.tcp.connection import ConnectionReset
from repro.tcp.socket_api import ListeningSocket, SimSocket, SocketClosedError
from tests.util import SERVER_IP, TwoHostLan, run_all


def echo_server_once(lan):
    def server():
        listening = ListeningSocket.listen(lan.server, 80)
        sock = yield from listening.accept()
        while True:
            data = yield from sock.recv(4096)
            if not data:
                break
            yield from sock.send_all(data)
        yield from sock.close_and_wait()

    return server


def test_recv_exactly_collects_fragments():
    lan = TwoHostLan()

    def server():
        listening = ListeningSocket.listen(lan.server, 80)
        sock = yield from listening.accept()
        yield from sock.send_all(b"abc")
        yield 0.01
        yield from sock.send_all(b"defgh")
        yield from sock.close_and_wait()

    def client():
        sock = SimSocket.connect(lan.client, SERVER_IP, 80)
        yield from sock.wait_connected()
        data = yield from sock.recv_exactly(8)
        yield from sock.close_and_wait()
        return data

    _, data = run_all(lan.sim, [server(), client()])
    assert data == b"abcdefgh"


def test_recv_exactly_raises_on_early_eof():
    lan = TwoHostLan()

    def server():
        listening = ListeningSocket.listen(lan.server, 80)
        sock = yield from listening.accept()
        yield from sock.send_all(b"abc")
        yield from sock.close_and_wait()

    def client():
        sock = SimSocket.connect(lan.client, SERVER_IP, 80)
        yield from sock.wait_connected()
        try:
            yield from sock.recv_exactly(10)
            outcome = "no-error"
        except SocketClosedError:
            outcome = "eof-error"
        yield from sock.close_and_wait()
        return outcome

    _, outcome = run_all(lan.sim, [server(), client()])
    assert outcome == "eof-error"


def test_recv_line_strips_crlf_and_lf():
    lan = TwoHostLan()

    def server():
        listening = ListeningSocket.listen(lan.server, 80)
        sock = yield from listening.accept()
        yield from sock.send_all(b"first\r\nsecond\nthird")
        yield from sock.close_and_wait()

    def client():
        sock = SimSocket.connect(lan.client, SERVER_IP, 80)
        yield from sock.wait_connected()
        one = yield from sock.recv_line()
        two = yield from sock.recv_line()
        tail = yield from sock.recv_until_eof()
        yield from sock.close_and_wait()
        return one, two, tail

    _, (one, two, tail) = run_all(lan.sim, [server(), client()])
    assert one == b"first"
    assert two == b"second"
    assert tail == b"third"


def test_recv_until_eof_empty_stream():
    lan = TwoHostLan()

    def server():
        listening = ListeningSocket.listen(lan.server, 80)
        sock = yield from listening.accept()
        yield from sock.close_and_wait()

    def client():
        sock = SimSocket.connect(lan.client, SERVER_IP, 80)
        yield from sock.wait_connected()
        data = yield from sock.recv_until_eof()
        yield from sock.close_and_wait()
        return data

    _, data = run_all(lan.sim, [server(), client()])
    assert data == b""


def test_send_after_peer_abort_raises():
    lan = TwoHostLan()

    def server():
        listening = ListeningSocket.listen(lan.server, 80)
        sock = yield from listening.accept()
        yield 0.01
        sock.abort()

    def client():
        sock = SimSocket.connect(lan.client, SERVER_IP, 80)
        yield from sock.wait_connected()
        yield 0.05
        try:
            yield from sock.send_all(b"x" * 100_000)
            return "sent"
        except (ConnectionReset, ConnectionError):
            return "reset"

    _, outcome = run_all(lan.sim, [server(), client()])
    assert outcome == "reset"


def test_connected_property():
    lan = TwoHostLan()
    lan.server.tcp.listen(80)
    sock = SimSocket.connect(lan.client, SERVER_IP, 80)
    assert not sock.connected
    lan.run(until=1.0)
    assert sock.connected


def test_multiple_sequential_connections_to_one_listener():
    from repro.apps.echo import echo_server

    lan = TwoHostLan()
    lan.server.spawn(echo_server(lan.server, 80, prefix=b""), "echo")

    def serial_clients():
        results = []
        for i in range(3):
            sock = SimSocket.connect(lan.client, SERVER_IP, 80)
            yield from sock.wait_connected()
            yield from sock.send_all(f"msg{i}".encode())
            reply = yield from sock.recv_exactly(4)
            results.append(reply)
            yield from sock.close_and_wait()
            yield 0.01
        return results

    (results,) = run_all(lan.sim, [serial_clients()])
    assert results == [b"msg0", b"msg1", b"msg2"]


def test_send_all_copies_only_what_the_buffer_accepts():
    """One ``send_all`` far larger than the send buffer blocks dozens of
    times; each resumption may hand the stack a window of the caller's
    buffer, never a fresh copy of the unsent remainder."""
    size = 4 * 1024 * 1024
    lan = TwoHostLan(record_traces=False)
    payload = bytes(range(256)) * (size // 256)
    received = hashlib.sha256()

    def server():
        listening = ListeningSocket.listen(lan.server, 80)
        sock = yield from listening.accept()
        while True:
            data = yield from sock.recv(65536)
            if not data:
                break
            received.update(data)
        yield from sock.close_and_wait()

    def client():
        sock = SimSocket.connect(lan.client, SERVER_IP, 80, send_buffer_size=65536)
        yield from sock.wait_connected()
        sent = yield from sock.send_all(payload)
        yield from sock.close_and_wait()
        return sent

    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _, sent = run_all(lan.sim, [server(), client()], until=120.0)
        peak = tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()
    assert sent == size
    assert received.digest() == hashlib.sha256(payload).digest()
    assert peak < 1024 * 1024, f"send_all held {peak} bytes beyond the payload"
