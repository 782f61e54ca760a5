"""TCB export/install: the state-transfer layer reintegration rides on.

A snapshot captures an ESTABLISHED (or CLOSE_WAIT) connection — sequence
state, buffered bytes, FIN bookkeeping — optionally mapped through a
Δseq into another numbering, and installs into a fresh host's TCP layer
as a live connection that keeps talking to the unmodified peer.
"""

import pytest

from repro.failover.delta import SeqOffset
from repro.tcp.connection import TcpState, TRANSFERABLE_STATES
from repro.tcp.socket_api import ListeningSocket, SimSocket
from tests.util import SERVER_IP, TwoHostLan, run_all, run_process


def _established_pair(lan, port=80):
    lan.server.tcp.listen(port)
    conn = lan.client.tcp.connect(SERVER_IP, port)
    lan.run(until=1.0)
    assert conn.state == TcpState.ESTABLISHED
    server_conn = next(iter(lan.server.tcp.connections.values()))
    return conn, server_conn


def test_export_roundtrips_sequence_state():
    lan = TwoHostLan()
    client_conn, server_conn = _established_pair(lan)
    server_conn.write(b"hello world")
    lan.run(until=1.5)
    snap = server_conn.export_state()
    assert snap.state == "ESTABLISHED"
    assert snap.snd_una == server_conn.snd_una
    assert snap.snd_max == server_conn.snd_max
    assert snap.rcv_nxt == server_conn.recv_buffer.rcv_nxt
    assert snap.stream_written == 11
    assert snap.mss == server_conn.mss


def test_export_applies_seq_mapping():
    lan = TwoHostLan()
    _, server_conn = _established_pair(lan)
    delta = SeqOffset(1000, 0)  # p_to_s subtracts 1000
    plain = server_conn.export_state()
    mapped = server_conn.export_state(map_seq=delta.p_to_s)
    assert mapped.snd_una == delta.p_to_s(plain.snd_una)
    assert mapped.snd_max == delta.p_to_s(plain.snd_max)
    assert mapped.iss == delta.p_to_s(plain.iss)
    # Receive-side numbering is the peer's own; it must NOT be mapped.
    assert mapped.rcv_nxt == plain.rcv_nxt
    assert mapped.irs == plain.irs


def test_export_refuses_non_transferable_states():
    lan = TwoHostLan()
    client_conn, server_conn = _established_pair(lan)
    server_conn.close()
    lan.run(until=2.0)
    assert server_conn.state not in TRANSFERABLE_STATES
    with pytest.raises(ValueError):
        server_conn.export_state()


def test_install_creates_live_connection():
    """Export from one host, install on another, peer keeps talking.

    The new owner re-announces the server IP (same-address install, so no
    bridge translation is needed for this unit test)."""
    lan = TwoHostLan()
    client_conn, server_conn = _established_pair(lan)
    snap = server_conn.export_state()

    # Simulate migration: the original owner dies, a fresh host (reusing
    # the same address for this unit test) installs the snapshot.
    lan.server.crash()
    lan.server.restart()
    installed = lan.server.tcp.install_connection(snap)
    assert installed.state == TcpState.ESTABLISHED
    assert installed.established_event.triggered

    def client_side():
        sock = SimSocket(client_conn)
        yield from sock.send_all(b"ping")
        reply = yield from sock.recv_exactly(4)
        assert reply == b"pong"
        yield from sock.close_and_wait()

    def server_side():
        sock = SimSocket(installed)
        request = yield from sock.recv_exactly(4)
        assert request == b"ping"
        yield from sock.send_all(b"pong")
        yield from sock.close_and_wait()

    run_all(lan.sim, [client_side(), server_side()], until=10.0)


def test_a_second_move_reports_every_byte_the_application_read():
    """Both stream positions survive any number of moves: a block installed
    from a snapshot exports what its predecessors' application wrote and
    read, plus its own."""
    lan = TwoHostLan()
    client_conn, server_conn = _established_pair(lan)
    client_conn.write(b"abcdefgh")
    lan.run(until=1.5)
    assert server_conn.read(3) == b"abc"
    server_conn.write(b"12")
    lan.run(until=2.0)
    for move, (read, written) in enumerate([(3, 2), (5, 3)]):
        snap = server_conn.export_state()
        assert (snap.stream_read, snap.stream_written) == (read, written), move
        lan.server.crash()
        lan.server.restart()
        server_conn = lan.server.tcp.install_connection(snap)
        assert server_conn.read(2) == b"defgh"[2 * move : 2 * move + 2]
        server_conn.write(b"3")
        lan.run(until=lan.sim.now + 0.5)


def test_install_restores_unacked_send_data():
    """Bytes sent but unacknowledged at snapshot time retransmit from the
    installed TCB and reach the peer exactly once."""
    lan = TwoHostLan()
    client_conn, server_conn = _established_pair(lan)
    payload = b"x" * 3000

    # Queue the payload, let barely any wire time pass, then freeze the
    # host so everything in flight dies unacknowledged.
    server_conn.write(payload)
    lan.sim.run(until=lan.sim.now + 10e-6)
    lan.server.crash()
    snap = server_conn.export_state()
    assert snap.send_data  # something was still unacknowledged
    lan.server.restart()
    installed = lan.server.tcp.install_connection(snap)

    def drain():
        csock = SimSocket(client_conn)
        data = bytearray()
        while len(data) < len(payload):
            chunk = yield from csock.recv(65536)
            if not chunk:
                break
            data.extend(chunk)
        assert bytes(data) == payload

    run_process(lan.sim, drain(), until=30.0)


def test_install_rejects_duplicate_key():
    lan = TwoHostLan()
    _, server_conn = _established_pair(lan)
    snap = server_conn.export_state()
    with pytest.raises(OSError):
        lan.server.tcp.install_connection(snap)


def test_install_preserves_unread_receive_data():
    lan = TwoHostLan()
    client_conn, server_conn = _established_pair(lan)
    client_conn.write(b"buffered-but-unread")
    lan.run(until=1.5)
    snap = server_conn.export_state()
    assert snap.recv_pending == b"buffered-but-unread"
    lan.server.crash()
    lan.server.restart()
    installed = lan.server.tcp.install_connection(snap)

    def reader():
        sock = SimSocket(installed)
        data = yield from sock.recv_exactly(len(b"buffered-but-unread"))
        assert data == b"buffered-but-unread"

    run_process(lan.sim, reader(), until=5.0)
