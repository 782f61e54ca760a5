"""Unit tests for the TCP layer: demux, listeners, ports, RST generation."""

import pytest

from repro.net.addresses import Ipv4Address
from repro.tcp.layer import EPHEMERAL_PORT_START
from repro.tcp.segment import FLAG_SYN, TcpSegment
from tests.util import CLIENT_IP, SERVER_IP, TwoHostLan


def _close_server_side(lan):
    """Finish the termination handshake: close every accepted server TCB."""
    for conn in list(lan.server.tcp.connections.values()):
        conn.close()


def _shutdown(lan, conns, start, settle=0.4):
    """Close server side first so the clients are the passive closers and
    deregister into linger state without a 2*MSL TIME_WAIT."""
    _close_server_side(lan)
    lan.run(until=start + settle / 2)
    for conn in conns:
        conn.close()
    lan.run(until=start + settle)
    return start + settle


def test_listen_rejects_duplicate_port():
    lan = TwoHostLan()
    lan.server.tcp.listen(80)
    with pytest.raises(OSError):
        lan.server.tcp.listen(80)


def test_close_listener_frees_port():
    lan = TwoHostLan()
    listener = lan.server.tcp.listen(80)
    listener.close()
    lan.server.tcp.listen(80)  # no error


def test_ephemeral_ports_are_sequential_and_deterministic():
    lan = TwoHostLan()
    lan.server.tcp.listen(80)
    c1 = lan.client.tcp.connect(SERVER_IP, 80)
    c2 = lan.client.tcp.connect(SERVER_IP, 80)
    assert c1.local_port == EPHEMERAL_PORT_START
    assert c2.local_port == EPHEMERAL_PORT_START + 1


def test_two_hosts_allocate_identical_ephemeral_sequences():
    """The determinism §7.2 relies on for replica port agreement."""
    lan = TwoHostLan()
    a = [lan.client.tcp.allocate_ephemeral_port() for _ in range(5)]
    b = [lan.server.tcp.allocate_ephemeral_port() for _ in range(5)]
    assert a == b


def test_ephemeral_allocation_skips_lingering_tuple():
    """Churn regression: a TIME_WAIT-style 4-tuple must not be re-issued."""
    lan = TwoHostLan()
    lan.server.tcp.listen(80)
    conn = lan.client.tcp.connect(SERVER_IP, 80)
    port = conn.local_port
    lan.run(until=0.1)
    _shutdown(lan, [conn], 0.1)
    assert conn.key not in lan.client.tcp.connections  # closed cleanly
    assert conn.key in lan.client.tcp._lingering
    # The wrapped allocator comes back around to the same port number...
    lan.client.tcp._next_ephemeral = port
    # ...but toward the lingering remote it must be skipped.
    c2 = lan.client.tcp.connect(SERVER_IP, 80)
    assert c2.local_port != port
    # Toward a different remote the port is fair game (distinct 4-tuple).
    lan.client.tcp._next_ephemeral = port
    assert lan.client.tcp.allocate_ephemeral_port(Ipv4Address("10.9.9.9"), 80) == port


def test_ephemeral_allocation_without_remote_blocks_lingering_port():
    lan = TwoHostLan()
    lan.server.tcp.listen(80)
    conn = lan.client.tcp.connect(SERVER_IP, 80)
    port = conn.local_port
    lan.run(until=0.1)
    _shutdown(lan, [conn], 0.1)
    lan.client.tcp._next_ephemeral = port
    # No destination context: any lingering use of the port blocks it.
    assert lan.client.tcp.allocate_ephemeral_port() != port


def test_lingering_port_freed_after_expiry():
    lan = TwoHostLan()
    lan.server.tcp.listen(80)
    conn = lan.client.tcp.connect(SERVER_IP, 80)
    port = conn.local_port
    lan.run(until=0.1)
    end = _shutdown(lan, [conn], 0.1)
    lan.run(until=end + lan.client.tcp.linger_duration + 0.1)
    lan.client.tcp._next_ephemeral = port
    assert lan.client.tcp.allocate_ephemeral_port(SERVER_IP, 80) == port
    assert conn.key not in lan.client.tcp._lingering  # pruned


def test_ephemeral_exhaustion_raises_clear_error():
    lan = TwoHostLan()
    lan.server.tcp.listen(80)
    tcp = lan.client.tcp
    tcp.ephemeral_port_start = 40000
    tcp.ephemeral_port_end = 40004
    tcp._next_ephemeral = 40000
    conns = [lan.client.tcp.connect(SERVER_IP, 80) for _ in range(4)]
    lan.run(until=0.1)
    with pytest.raises(OSError, match="ephemeral ports exhausted"):
        lan.client.tcp.connect(SERVER_IP, 80)
    # The error says where the ports went.
    with pytest.raises(OSError, match="4 held by live connections"):
        lan.client.tcp.connect(SERVER_IP, 80)
    _shutdown(lan, conns, 0.1)
    # All four closed cleanly into linger state: still exhausted, but the
    # diagnosis now points at the TIME_WAIT-style records.
    with pytest.raises(OSError, match="4 lingering after close"):
        lan.client.tcp.connect(SERVER_IP, 80)
    # A different remote endpoint reuses the lingering ports immediately.
    assert tcp.allocate_ephemeral_port(Ipv4Address("10.9.9.9"), 80) == 40000


def test_churn_reuses_ports_without_tuple_collision():
    """Sustained connect/close churn through a tiny port range stays clean."""
    lan = TwoHostLan()
    lan.server.tcp.listen(80, backlog=32)
    tcp = lan.client.tcp
    tcp.ephemeral_port_start = 40000
    tcp.ephemeral_port_end = 40008
    tcp._next_ephemeral = 40000
    tcp.linger_duration = 0.2
    completed = 0
    t = 0.0
    for _round in range(6):
        conns = [lan.client.tcp.connect(SERVER_IP, 80) for _ in range(4)]
        t += 0.05
        lan.run(until=t)
        for conn in conns:
            assert conn.state.name == "ESTABLISHED", conn
        t = _shutdown(lan, conns, t)
        t += 0.3  # let the linger windows expire before the next round
        lan.run(until=t)
        completed += len(conns)
    assert completed == 24
    assert lan.client.tcp.rsts_sent == 0
    assert lan.server.tcp.rsts_sent == 0


def test_duplicate_connect_same_tuple_rejected():
    lan = TwoHostLan()
    lan.server.tcp.listen(80)
    lan.client.tcp.connect(SERVER_IP, 80, local_port=5555)
    with pytest.raises(OSError):
        lan.client.tcp.connect(SERVER_IP, 80, local_port=5555)


def test_backlog_limits_pending_connections():
    lan = TwoHostLan()
    lan.server.tcp.listen(80, backlog=1)
    # Stop the server answering SYNs quickly by crashing... instead flood
    # SYNs in one instant: only backlog=1 pending is admitted at a time.
    for _ in range(3):
        lan.client.tcp.connect(SERVER_IP, 80)
    lan.run(until=0.0005)
    pending = [c for c in lan.server.tcp.connections.values()]
    assert len(pending) <= 2  # 1 pending + possibly 1 just established


def test_rst_sent_for_unknown_segment():
    lan = TwoHostLan()
    segment = TcpSegment(
        src_port=1111, dst_port=2222, seq=5, ack=0, flags=FLAG_SYN,
        window=100, mss_option=1460,
    ).sealed(CLIENT_IP, SERVER_IP)
    lan.client.send_ip(segment, CLIENT_IP, SERVER_IP)
    lan.run(until=1.0)
    assert lan.server.tcp.rsts_sent == 1
    assert lan.tracer.count("tcp.rst_sent") == 1


def test_no_rst_for_rst():
    from repro.tcp.segment import FLAG_RST

    lan = TwoHostLan()
    segment = TcpSegment(
        src_port=1, dst_port=2, seq=5, ack=0, flags=FLAG_RST, window=0,
    ).sealed(CLIENT_IP, SERVER_IP)
    lan.client.send_ip(segment, CLIENT_IP, SERVER_IP)
    lan.run(until=1.0)
    assert lan.server.tcp.rsts_sent == 0


def test_syn_with_bad_checksum_ignored():
    lan = TwoHostLan()
    lan.server.tcp.listen(80)
    segment = TcpSegment(
        src_port=1111, dst_port=80, seq=5, ack=0, flags=FLAG_SYN,
        window=100, checksum=0xBEEF,
    )
    lan.client.send_ip(segment, CLIENT_IP, SERVER_IP)
    lan.run(until=1.0)
    assert lan.server.tcp.connections == {}
    assert lan.tracer.count("tcp.bad_checksum") == 1


def test_iss_random_per_connection():
    lan = TwoHostLan()
    values = {lan.client.tcp.choose_iss() for _ in range(10)}
    assert len(values) == 10


def test_rebind_local_ip_moves_connections():
    lan = TwoHostLan()
    lan.server.tcp.listen(80)
    conn = lan.client.tcp.connect(SERVER_IP, 80)
    lan.run(until=1.0)
    new_ip = Ipv4Address("10.0.0.50")
    lan.client.eth_interface.add_address(new_ip)
    lan.client.tcp.rebind_local_ip(CLIENT_IP, new_ip)
    assert conn.local_ip == new_ip
    assert conn.key in lan.client.tcp.connections
