"""Loss-recovery tests: retransmission, fast retransmit, dup-ACK handling.

These exercise the plain TCP machinery that §4 of the paper leans on; the
failover-specific loss cases live in tests/failover/test_loss_cases.py.
"""

from repro.net.faults import Drop, is_fin, is_syn_ack, is_tcp
from repro.tcp.socket_api import ListeningSocket, SimSocket
from tests.util import SERVER_IP, TwoHostLan, nth_data_frames, run_all


def data_frame_dropper(lan, which_host, drop_indices):
    """Drop the n-th TCP *data* frame arriving at ``which_host``."""
    lan.attach_checks()
    lan.plane.rule("data-loss", Drop(), point=f"nic:{which_host.name}",
                   match=nth_data_frames(drop_indices))


def transfer(lan, blob, client_opts=None, until=120.0):
    def server():
        listening = ListeningSocket.listen(lan.server, 80)
        sock = yield from listening.accept()
        data = yield from sock.recv_until_eof()
        yield from sock.close_and_wait()
        return data

    def client():
        sock = SimSocket.connect(lan.client, SERVER_IP, 80, **(client_opts or {}))
        yield from sock.wait_connected()
        yield from sock.send_all(blob)
        yield from sock.close_and_wait()
        return sock

    data, sock = run_all(lan.sim, [server(), client()], until=until)
    return data, sock.conn


def test_single_drop_recovered_by_retransmission():
    lan = TwoHostLan()
    blob = bytes(i & 0xFF for i in range(50_000))
    data_frame_dropper(lan, lan.server, {5})
    data, conn = transfer(lan, blob, client_opts={"min_rto": 0.05})
    assert data == blob
    assert conn.retransmissions >= 1


def test_burst_drop_recovered():
    lan = TwoHostLan()
    blob = bytes((i * 7) & 0xFF for i in range(80_000))
    data_frame_dropper(lan, lan.server, set(range(10, 16)))
    data, conn = transfer(lan, blob, client_opts={"min_rto": 0.05})
    assert data == blob


def test_fast_retransmit_fires_on_dup_acks():
    lan = TwoHostLan()
    blob = bytes(i & 0xFF for i in range(120_000))
    # Drop a mid-stream segment, once the congestion window is wide
    # enough that at least three later segments generate duplicate ACKs.
    data_frame_dropper(lan, lan.server, {30})
    data, conn = transfer(lan, blob, client_opts={"min_rto": 1.0})
    assert data == blob
    # With a 1s floor RTO, recovery this fast requires fast retransmit.
    assert conn.cc.fast_retransmits >= 1
    assert lan.tracer.count("tcp.fast_rtx") >= 1


def test_lost_ack_is_harmless():
    """Dropping pure ACKs delays nothing permanently (cumulative ACKs)."""
    lan = TwoHostLan()
    blob = bytes(i & 0xFF for i in range(30_000))
    state = {"index": 0}

    def every_third_pure_ack(ctx):
        if not is_tcp(ctx) or ctx.segment.payload:
            return False
        state["index"] += 1
        return state["index"] % 3 == 0

    lan.attach_checks()
    lan.plane.rule("ack-loss", Drop(), point="nic:client", match=every_third_pure_ack)
    data, conn = transfer(lan, blob, client_opts={"min_rto": 0.05})
    assert data == blob


def test_lost_fin_retransmitted():
    lan = TwoHostLan()
    blob = b"short"
    lan.attach_checks()
    fin_loss = lan.plane.rule("fin-loss", Drop(), point="nic:server", match=is_fin, nth=0)
    data, conn = transfer(lan, blob, client_opts={"min_rto": 0.05})
    assert data == blob
    assert fin_loss.fired == 1


def test_lost_syn_ack_recovered():
    lan = TwoHostLan()
    lan.attach_checks()
    syn_ack_loss = lan.plane.rule(
        "syn-ack-loss", Drop(), point="nic:client", match=is_syn_ack, nth=0
    )
    blob = b"after-retry"
    data, conn = transfer(lan, blob, client_opts={"initial_rto": 0.1})
    assert data == blob
    assert syn_ack_loss.fired == 1


def test_heavy_random_loss_stream_integrity():
    """10% random loss in both directions: slow but exact."""
    import random

    lan = TwoHostLan()
    rng = random.Random(4)
    lan.attach_checks()
    for host in ("server", "client"):
        lan.plane.rule(f"loss-{host}", Drop(), point=f"nic:{host}",
                       match=lambda ctx: rng.random() < 0.10)
    blob = bytes((i * 13) & 0xFF for i in range(40_000))
    data, conn = transfer(lan, blob, client_opts={"min_rto": 0.05}, until=300.0)
    assert data == blob
