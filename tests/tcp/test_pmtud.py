"""ICMP fragmentation-needed handling: RFC 1191 with RFC 5927 validation.

The quoted sequence number is the authenticator: only a quote inside
the currently-unacknowledged send range may clamp the MSS, so an
off-path forger who knows just the 4-tuple cannot shrink a co-hosted
connection's segments (the address-sharing isolation break).
"""

from repro.apps.bulk import pattern_bytes
from repro.sim.process import spawn
from repro.tcp.connection import TcpConnection, TcpState
from repro.tcp.seqnum import seq_add
from repro.tcp.socket_api import ListeningSocket, SimSocket
from tests.util import CLIENT_IP, SERVER_IP, TwoHostLan

PORT = 80


def _mid_transfer():
    """A client mid-upload, with payload bytes genuinely outstanding (a
    SYN in flight would be outstanding too, but it is no upload)."""
    lan = TwoHostLan()
    state = {}

    def server():
        listening = ListeningSocket.listen(lan.server, PORT)
        sock = yield from listening.accept()
        yield from sock.recv_until_eof()

    def client():
        sock = SimSocket.connect(lan.client, SERVER_IP, PORT)
        state["sock"] = sock
        yield from sock.wait_connected()
        yield from sock.send_all(pattern_bytes(400_000))
        yield from sock.close_and_wait()

    spawn(lan.sim, server(), "pmtud-server")
    spawn(lan.sim, client(), "pmtud-client")
    assert lan.sim.run_until(
        lambda: "sock" in state
        and state["sock"].conn.state is TcpState.ESTABLISHED
        and state["sock"].conn.send_buffer.in_flight > 0,
        timeout=5.0,
    )
    return lan, state["sock"].conn


def _hint(lan, conn, quoted_seq, mtu):
    return lan.client.tcp.icmp_frag_needed(
        CLIENT_IP, conn.local_port, SERVER_IP, PORT, quoted_seq, mtu
    )


def test_valid_quote_clamps_mss():
    lan, conn = _mid_transfer()
    assert _hint(lan, conn, conn.snd_una, 576)
    assert conn.mss == 576 - 40
    assert lan.client.tcp.pmtud_accepted == 1
    assert lan.client.tcp.pmtud_rejected == 0


def test_quote_outside_send_range_is_rejected():
    lan, conn = _mid_transfer()
    mss_before = conn.mss
    # Already-acknowledged bytes and not-yet-sent bytes both fail the
    # snd_una <= q < snd_max validation window.
    assert not _hint(lan, conn, seq_add(conn.snd_una, -1000), 576)
    assert not _hint(lan, conn, seq_add(conn.snd_max, 1000), 576)
    assert conn.mss == mss_before
    assert lan.client.tcp.pmtud_rejected == 2


def test_mtu_below_ipv4_minimum_is_rejected():
    lan, conn = _mid_transfer()
    mss_before = conn.mss
    assert not _hint(lan, conn, conn.snd_una, TcpConnection.MIN_PMTU - 1)
    assert conn.mss == mss_before
    assert lan.client.tcp.pmtud_rejected == 1


def test_unknown_four_tuple_is_rejected():
    lan, conn = _mid_transfer()
    assert not lan.client.tcp.icmp_frag_needed(
        CLIENT_IP, conn.local_port, SERVER_IP, PORT + 1, conn.snd_una, 576
    )
    assert lan.client.tcp.pmtud_rejected == 1


def test_mss_is_only_ever_clamped_downward():
    lan, conn = _mid_transfer()
    assert _hint(lan, conn, conn.snd_una, 576)
    # A later, larger MTU must not re-inflate the MSS.
    assert not _hint(lan, conn, conn.snd_una, 1400)
    assert conn.mss == 576 - 40
