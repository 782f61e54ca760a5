"""Failure of the primary server (§5): detection, takeover, continuation."""

import pytest

from repro.apps import bulk
from repro.failover.takeover import TakeoverState
from repro.tcp.socket_api import ListeningSocket, SimSocket
from tests.util import PRIMARY_IP, SECONDARY_IP, ReplicatedLan, run_all

PORT = 80


def streaming_app(size):
    def factory(host):
        return bulk.source_server(host, PORT, size)
    return factory


def pull_through_crash(lan, size, crash_at, until=120.0):
    lan.start_detectors()
    lan.pair.run_app(streaming_app(size))

    def client():
        sock = SimSocket.connect(lan.client, lan.server_ip, PORT, min_rto=0.05)
        yield from sock.wait_connected()
        yield from sock.send_all(b"PULL")
        data = yield from sock.recv_exactly(size)
        yield from sock.close_and_wait()
        return data

    lan.sim.schedule(crash_at, lan.pair.crash_primary)
    (data,) = run_all(lan.sim, [client()], until=until)
    return data


def test_stream_intact_across_primary_crash():
    lan = ReplicatedLan(failover_ports=(PORT,))
    size = 500_000
    data = pull_through_crash(lan, size, crash_at=0.050)
    assert data == bulk.pattern_bytes(size)


def test_no_rst_reaches_client_during_failover():
    lan = ReplicatedLan(failover_ports=(PORT,))
    size = 200_000
    data = pull_through_crash(lan, size, crash_at=0.040)
    assert data == bulk.pattern_bytes(size)
    client_resets = lan.tracer.select(
        category="tcp.rst_received", node="client"
    )
    assert client_resets == []


def test_takeover_acquires_primary_address():
    lan = ReplicatedLan(failover_ports=(PORT,))
    pull_through_crash(lan, 100_000, crash_at=0.030)
    assert lan.secondary.ip.owns(PRIMARY_IP)
    assert lan.pair.failed_over
    assert lan.tracer.count("arp.gratuitous") >= 1


def test_tcbs_rebound_to_primary_address():
    lan = ReplicatedLan(failover_ports=(PORT,))
    pull_through_crash(lan, 100_000, crash_at=0.030)
    # Surviving failover TCBs are homed on a_p, not a_s.
    for key, conn in lan.secondary.tcp.connections.items():
        if conn.local_port == PORT:
            assert conn.local_ip == PRIMARY_IP


def test_secondary_bridge_inert_after_takeover():
    lan = ReplicatedLan(failover_ports=(PORT,))
    pull_through_crash(lan, 100_000, crash_at=0.030)
    assert not lan.pair.secondary_bridge.active
    assert not lan.secondary.nic.promiscuous


def test_crash_during_handshake_still_connects():
    """P dies right as the connection is being established; S's SYN-ACK
    retransmission reaches the client after takeover."""
    lan = ReplicatedLan(failover_ports=(PORT,))
    lan.start_detectors()

    def server_app(host):
        def app():
            listening = ListeningSocket.listen(host, PORT)
            sock = yield from listening.accept()
            data = yield from sock.recv_exactly(4)
            yield from sock.send_all(b"ok:" + data)
            yield from sock.close_and_wait()
        return app()

    lan.pair.run_app(server_app)

    # Crash the primary the instant the client's SYN hits the wire.
    lan.sim.schedule(30e-6, lan.pair.crash_primary)

    def client():
        sock = SimSocket.connect(lan.client, lan.server_ip, PORT, initial_rto=0.2)
        yield from sock.wait_connected()
        yield from sock.send_all(b"ping")
        reply = yield from sock.recv_exactly(7)
        yield from sock.close_and_wait()
        return reply

    (reply,) = run_all(lan.sim, [client()], until=60.0)
    assert reply == b"ok:ping"
    assert lan.pair.failed_over


def test_crash_during_client_upload():
    """Client-to-server direction: everything the bridge acknowledged is
    at the secondary after failover (requirement 2 of §2)."""
    lan = ReplicatedLan(failover_ports=(PORT,))
    lan.start_detectors()
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

    lan.pair.run_app(sink_app)
    blob = bulk.pattern_bytes(400_000)

    def client():
        sock = SimSocket.connect(lan.client, lan.server_ip, PORT, min_rto=0.05)
        yield from sock.wait_connected()
        yield from sock.send_all(blob)
        yield from sock.close_and_wait()

    lan.sim.schedule(0.050, lan.pair.crash_primary)
    run_all(lan.sim, [client()], until=120.0)
    assert received.get("secondary") == blob


def test_failover_with_client_request_in_flight_during_arp_window():
    """Segments sent into the ARP window are lost and recovered by
    client retransmission, exactly as §5 describes."""
    lan = ReplicatedLan(failover_ports=(PORT,), client_arp_delay=2e-3)
    size = 300_000
    data = pull_through_crash(lan, size, crash_at=0.060)
    assert data == bulk.pattern_bytes(size)
    # The client (or surviving server) really did retransmit something.
    rtx = lan.tracer.select(category="tcp.rtx")
    assert len(rtx) >= 1


def test_detector_fires_exactly_once():
    lan = ReplicatedLan(failover_ports=(PORT,))
    pull_through_crash(lan, 100_000, crash_at=0.030)
    assert lan.tracer.count("detector.failure") == 1


@pytest.mark.parametrize("crash_ms", [5, 20, 45, 70])
def test_stream_intact_for_various_crash_instants(crash_ms):
    lan = ReplicatedLan(failover_ports=(PORT,), seed=crash_ms)
    size = 250_000
    data = pull_through_crash(lan, size, crash_at=crash_ms / 1000.0)
    assert data == bulk.pattern_bytes(size)


def test_fence_while_resuming_never_completes_the_takeover():
    """Step-down fencing lands inside the takeover's RESUMING window: the
    trusted peer claims the secondary's own (unguarded) address after the
    gratuitous ARP for the service address went out.  The procedure ends
    FENCED, never resumes transmission, and the secondary's failover plane
    stands down."""
    lan = ReplicatedLan()
    lan.start_detectors()
    pair = lan.pair
    states = []
    lan.sim.schedule(0.010, pair.force_primary_failover)
    lan.sim.schedule(0.01004, lambda: states.append(pair.takeover.state))
    lan.sim.schedule(
        0.01005, lambda: lan.primary.eth_interface.arp.announce(SECONDARY_IP)
    )
    lan.run(until=0.100)

    assert states == [TakeoverState.RESUMING]
    assert pair.takeover.state is TakeoverState.FENCED
    assert not lan.tracer.select(category="takeover.complete")
    assert lan.secondary.bridge is None
    assert not pair.secondary_detector.started
