"""Connection termination through the bridge (§8).

Covers both termination directions, half-close, bridge state deletion,
and the late-FIN rules (synthesised ACKs after state deletion).
"""

import pytest

from repro.net.faults import Drop
from repro.tcp.socket_api import ListeningSocket, SimSocket
from tests.util import CLIENT_IP, ReplicatedLan, run_all

PORT = 80


def test_client_initiated_close_cleans_bridge_state():
    lan = ReplicatedLan(failover_ports=(PORT,))

    def server_app(host):
        def app():
            listening = ListeningSocket.listen(host, PORT)
            sock = yield from listening.accept()
            yield from sock.recv_until_eof()
            yield from sock.close_and_wait()
        return app()

    lan.pair.run_app(server_app)

    def client():
        sock = SimSocket.connect(lan.client, lan.server_ip, PORT)
        yield from sock.wait_connected()
        yield from sock.send_all(b"bye")
        yield from sock.close_and_wait()

    run_all(lan.sim, [client()], until=10.0)
    lan.run(until=30.0)
    assert lan.pair.primary_bridge.connections == {}
    assert lan.tracer.count("bridge.p.conn_deleted") == 1


def test_server_initiated_close():
    lan = ReplicatedLan(failover_ports=(PORT,))

    def server_app(host):
        def app():
            listening = ListeningSocket.listen(host, PORT)
            sock = yield from listening.accept()
            yield from sock.send_all(b"push-then-close")
            yield from sock.close_and_wait()
        return app()

    lan.pair.run_app(server_app)

    def client():
        sock = SimSocket.connect(lan.client, lan.server_ip, PORT)
        yield from sock.wait_connected()
        data = yield from sock.recv_until_eof()
        yield from sock.close_and_wait()
        return data

    (data,) = run_all(lan.sim, [client()], until=10.0)
    assert data == b"push-then-close"
    lan.run(until=30.0)
    assert lan.pair.primary_bridge.connections == {}


def _close(sock, first):
    """Close ``sock``: at once if its side goes ``first``, else after the
    other side's FIN."""
    if not first:
        yield from sock.recv_until_eof()
    yield from sock.close_and_wait()


@pytest.mark.parametrize("pair_first", [False, True], ids=["peer-first", "pair-first"])
@pytest.mark.parametrize("outbound", [False, True], ids=["client-initiated", "connect-out"])
def test_close_in_direct_mode_deletes_bridge_state(outbound, pair_first):
    """§6 then §8: once the secondary is gone P's own ACK is the merged
    one, so the FIN exchange still deletes the bridge state — in both
    connection directions, whichever side closes first (when the pair
    does, the last step is P's ACK of the peer's FIN, passed through)."""
    lan = ReplicatedLan(failover_ports=(2000,) if outbound else (PORT,))

    def replica_app(host):
        def app():
            if outbound:  # §7.2: the pair connects out to T on the client host
                sock = SimSocket.connect(host, CLIENT_IP, 7000, local_port=2000)
                yield from sock.wait_connected()
            else:
                sock = yield from ListeningSocket.listen(host, PORT).accept()
            yield 1.0  # the secondary dies meanwhile
            yield from _close(sock, pair_first)
        return app()

    def peer():
        if outbound:
            sock = yield from ListeningSocket.listen(lan.client, 7000).accept()
        else:
            sock = SimSocket.connect(lan.client, lan.server_ip, PORT)
            yield from sock.wait_connected()
        yield 1.0
        yield from _close(sock, not pair_first)

    def remove_secondary():
        lan.pair.crash_secondary()
        lan.pair.force_secondary_removal()

    lan.pair.run_app(replica_app, "outbound" if outbound else "app")
    lan.sim.schedule(0.5, remove_secondary)
    run_all(lan.sim, [peer()], until=10.0)
    lan.run(until=30.0)
    assert lan.tracer.count("bridge.p.flushed") == 1  # it did run in direct mode
    assert lan.pair.primary_bridge.connections == {}
    assert lan.tracer.count("bridge.p.conn_deleted") == 1


def test_half_close_client_keeps_receiving():
    """Client FINs first; the servers stream the response afterwards —
    the §8 half-closed state where the bridge must keep merging."""
    lan = ReplicatedLan(failover_ports=(PORT,))
    payload = bytes((i * 11) & 0xFF for i in range(100_000))

    def server_app(host):
        def app():
            listening = ListeningSocket.listen(host, PORT)
            sock = yield from listening.accept()
            request = yield from sock.recv_until_eof()
            assert request == b"GO"
            yield from sock.send_all(payload)
            yield from sock.close_and_wait()
        return app()

    lan.pair.run_app(server_app)

    def client():
        sock = SimSocket.connect(lan.client, lan.server_ip, PORT)
        yield from sock.wait_connected()
        yield from sock.send_all(b"GO")
        sock.close()  # half-close
        data = yield from sock.recv_until_eof()
        return data

    (data,) = run_all(lan.sim, [client()], until=60.0)
    assert data == payload


def test_fin_positions_must_agree():
    """Both replicas close at the same stream position; the bridge emits
    exactly one merged FIN (no duplicates while queues drain)."""
    lan = ReplicatedLan(failover_ports=(PORT,), record_traces=True)

    def server_app(host):
        def app():
            listening = ListeningSocket.listen(host, PORT)
            sock = yield from listening.accept()
            yield from sock.send_all(b"exact")
            yield from sock.close_and_wait()
        return app()

    lan.pair.run_app(server_app)

    def client():
        sock = SimSocket.connect(lan.client, lan.server_ip, PORT)
        yield from sock.wait_connected()
        data = yield from sock.recv_until_eof()
        yield from sock.close_and_wait()
        return data

    (data,) = run_all(lan.sim, [client()], until=10.0)
    assert data == b"exact"
    fins = lan.tracer.select(category="bridge.p.emit_fin")
    assert len(fins) >= 1
    assert lan.pair.primary_bridge.mismatches == 0


def test_late_fin_from_secondary_gets_synthesized_ack():
    """§8: S retransmits its FIN after the bridge deleted the connection;
    the bridge answers with an ACK that satisfies S's TCP."""
    lan = ReplicatedLan(failover_ports=(PORT,))
    # Drop the first client ACKs snooped by the secondary so S lingers in
    # LAST_ACK and retransmits its FIN after the bridge state is gone.
    lan.attach_checks()

    def pure_client_ack(ctx):
        segment = ctx.segment
        return (
            segment is not None
            and segment.has_ack
            and not (segment.payload or segment.syn or segment.fin)
            and ctx.src_ip == lan.client.ip.primary_address()
        )

    def server_app(host):
        def app():
            listening = ListeningSocket.listen(host, PORT)
            sock = yield from listening.accept()
            yield from sock.recv_until_eof()
            yield from sock.close_and_wait()
        return app()

    lan.pair.run_app(server_app)

    def client():
        sock = SimSocket.connect(lan.client, lan.server_ip, PORT)
        yield from sock.wait_connected()
        yield from sock.send_all(b"x")
        # Start dropping only after data flowed.
        lan.plane.rule("late-ack-loss", Drop(), point="nic:secondary",
                       match=pure_client_ack, max_fires=3)
        yield from sock.close_and_wait()

    run_all(lan.sim, [client()], until=20.0)
    lan.run(until=60.0)
    # Either S recovered via a snooped retransmission or the bridge
    # synthesised the ACK; in both cases S's TCB must be gone.
    live = [
        c for c in lan.secondary.tcp.connections.values()
        if c.local_port == PORT
    ]
    assert live == []


def test_late_client_fin_gets_synthesized_ack():
    """§8: the client retransmits its FIN after bridge state deletion."""
    lan = ReplicatedLan(failover_ports=(PORT,))

    def server_app(host):
        def app():
            listening = ListeningSocket.listen(host, PORT)
            sock = yield from listening.accept()
            yield from sock.recv_until_eof()
            yield from sock.close_and_wait()
        return app()

    lan.pair.run_app(server_app)
    finished = {}

    def client():
        sock = SimSocket.connect(lan.client, lan.server_ip, PORT, min_rto=0.05)
        yield from sock.wait_connected()
        yield from sock.send_all(b"q")
        yield from sock.close_and_wait()
        finished["t"] = lan.sim.now
        # Re-inject the client's FIN as if the servers' final ACK was lost.
        conn = sock.conn
        return conn

    (conn,) = run_all(lan.sim, [client()], until=20.0)
    lan.run(until=25.0)
    # Force a late FIN replay at the primary: bridge state is deleted, so
    # the §8 path must answer with a synthesised ACK, not a RST.
    from repro.tcp.segment import FLAG_ACK, FLAG_FIN, TcpSegment

    late_fin = TcpSegment(
        src_port=conn.local_port,
        dst_port=PORT,
        seq=conn.snd_max - 1 if conn.snd_max >= 1 else 0,
        ack=conn.rcv_nxt,
        flags=FLAG_FIN | FLAG_ACK,
        window=1000,
    ).sealed(conn.local_ip, lan.server_ip)
    before = lan.pair.primary_bridge.late_acks_synthesized
    lan.client.send_ip(late_fin, conn.local_ip, lan.server_ip)
    lan.run(until=30.0)
    assert lan.pair.primary_bridge.late_acks_synthesized == before + 1
