"""Integration tests for connection establishment through the bridges.

§7.1 (client-initiated) and §7.2 (server-initiated), plus the MSS and
Δseq bookkeeping both depend on.
"""

from repro.net.faults import Drop, is_syn_ack
from repro.tcp.seqnum import seq_sub
from repro.tcp.socket_api import ListeningSocket, SimSocket
from tests.util import CLIENT_IP, ReplicatedLan, run_all


def test_client_initiated_establishment():
    lan = ReplicatedLan(failover_ports=(80,))

    def server_app(host):
        def app():
            listening = ListeningSocket.listen(host, 80)
            sock = yield from listening.accept()
            yield from sock.recv(10)
        return app()

    lan.pair.run_app(server_app)

    def client():
        sock = SimSocket.connect(lan.client, lan.server_ip, 80)
        yield from sock.wait_connected()
        return sock

    (sock,) = run_all(lan.sim, [client()], until=5.0)
    assert sock.connected
    # Both replicas independently established the connection.
    assert lan.primary.tcp.established_count() == 1
    assert lan.secondary.tcp.established_count() == 1


def test_delta_matches_replica_iss_difference():
    lan = ReplicatedLan(failover_ports=(80,))

    def server_app(host):
        def app():
            listening = ListeningSocket.listen(host, 80)
            yield from listening.accept()
        return app()

    lan.pair.run_app(server_app)

    def client():
        sock = SimSocket.connect(lan.client, lan.server_ip, 80)
        yield from sock.wait_connected()
        return sock

    run_all(lan.sim, [client()], until=5.0)
    bc = next(iter(lan.pair.primary_bridge.connections.values()))
    p_conn = next(iter(lan.primary.tcp.connections.values()))
    s_conn = next(iter(lan.secondary.tcp.connections.values()))
    assert bc.delta.delta == seq_sub(p_conn.iss, s_conn.iss)


def test_client_sees_secondary_sequence_numbers():
    """The SYN-ACK the client accepts carries S's ISS (Δseq sync, §3.3)."""
    lan = ReplicatedLan(failover_ports=(80,))

    def server_app(host):
        def app():
            listening = ListeningSocket.listen(host, 80)
            yield from listening.accept()
        return app()

    lan.pair.run_app(server_app)

    def client():
        sock = SimSocket.connect(lan.client, lan.server_ip, 80)
        yield from sock.wait_connected()
        return sock.conn

    (conn,) = run_all(lan.sim, [client()], until=5.0)
    s_conn = next(iter(lan.secondary.tcp.connections.values()))
    assert conn.irs == s_conn.iss


def test_merged_syn_carries_min_mss():
    lan = ReplicatedLan(failover_ports=(80,))
    lan.secondary.tcp.conn_defaults["mss"] = 900  # secondary is smaller

    def server_app(host):
        def app():
            listening = ListeningSocket.listen(host, 80)
            yield from listening.accept()
        return app()

    lan.pair.run_app(server_app)

    def client():
        sock = SimSocket.connect(lan.client, lan.server_ip, 80)
        yield from sock.wait_connected()
        return sock.conn

    (conn,) = run_all(lan.sim, [client()], until=5.0)
    assert conn.mss == 900  # client adopted min(mss_P, mss_S)
    bc = next(iter(lan.pair.primary_bridge.connections.values()))
    assert bc.mss == 900


def test_lost_merged_syn_ack_retransmitted_through_bridge():
    lan = ReplicatedLan(failover_ports=(80,))
    lan.attach_checks()
    syn_ack_loss = lan.plane.rule(
        "syn-ack-loss", Drop(), point="nic:client", match=is_syn_ack, nth=0
    )

    def server_app(host):
        def app():
            listening = ListeningSocket.listen(host, 80)
            yield from listening.accept()
        return app()

    lan.pair.run_app(server_app)

    def client():
        sock = SimSocket.connect(lan.client, lan.server_ip, 80, initial_rto=0.1)
        yield from sock.wait_connected()
        return sock

    (sock,) = run_all(lan.sim, [client()], until=10.0)
    assert sock.connected
    assert syn_ack_loss.fired == 1


def test_server_initiated_establishment():
    """§7.2: the replicated pair connects out to an unreplicated server."""
    lan = ReplicatedLan(failover_ports=(2000,))

    accepted = {}

    def backend():  # unreplicated "T" runs on the client host
        listening = ListeningSocket.listen(lan.client, 7000)
        sock = yield from listening.accept()
        accepted["sock"] = sock
        data = yield from sock.recv_exactly(5)
        yield from sock.send_all(b"ack:" + data)
        yield from sock.close_and_wait()

    def replica_app(host):
        def app():
            sock = SimSocket.connect(
                host, CLIENT_IP, 7000, local_port=2000
            )
            yield from sock.wait_connected()
            yield from sock.send_all(b"hello")
            reply = yield from sock.recv_exactly(9)
            yield from sock.close_and_wait()
            return reply
        return app()

    lan.pair.run_app(replica_app, "outbound")
    (_,) = run_all(lan.sim, [backend()], until=10.0)
    lan.run(until=12.0)
    # Exactly one connection appeared at the backend (one merged SYN).
    p_conn = next(iter(lan.primary.tcp.connections.values()), None)
    s_conn = next(iter(lan.secondary.tcp.connections.values()), None)
    # Both replicas saw the connection established and the same reply.
    assert lan.tracer.count("bridge.p.syn_merged") == 1


def test_server_initiated_replies_reach_both_replicas():
    lan = ReplicatedLan(failover_ports=(2000,))
    replies = {}

    def backend():
        listening = ListeningSocket.listen(lan.client, 7000)
        sock = yield from listening.accept()
        data = yield from sock.recv_exactly(5)
        yield from sock.send_all(b"ack:" + data)
        yield from sock.close_and_wait()

    def replica_app(host):
        def app():
            sock = SimSocket.connect(host, CLIENT_IP, 7000, local_port=2000)
            yield from sock.wait_connected()
            yield from sock.send_all(b"hello")
            reply = yield from sock.recv_exactly(9)
            replies[host.name] = reply
            yield from sock.close_and_wait()
        return app()

    lan.pair.run_app(replica_app, "outbound")
    run_all(lan.sim, [backend()], until=10.0)
    lan.run(until=12.0)
    assert replies.get("primary") == b"ack:hello"
    assert replies.get("secondary") == b"ack:hello"
