"""Nothing outlives its owner: reference counting alone frees what a close,
a crash or a reintegration ends.

The paper's crash model is fail-stop (§5, §6): a failed replica loses every
connection and a restarted one holds none.  Each test here runs with the
cycle collector off from before its testbed exists to its weakref checks,
so a TCB, socket, process or bridge that only a reference cycle keeps
alive counts as leaked — it would otherwise linger until some later gen-2
pass.
"""

import gc
import weakref

import pytest

from repro.failover.core import BridgeConnection
from repro.tcp.connection import ConnectionReset
from repro.tcp.socket_api import ListeningSocket, SimSocket
from tests.util import CLIENT_IP, ReplicatedLan, run_all

PORT = 80


@pytest.fixture(autouse=True)
def no_cycle_collector():
    """The collector is off from before the testbed exists to the end of
    the test; earlier tests' garbage is swept first, so it cannot pass for
    this one's."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _alive(refs):
    """The names whose referent is still alive (empty when all are freed)."""
    return [name for name, ref in refs if ref() is not None]


def _count(cls):
    return sum(1 for obj in gc.get_objects() if type(obj) is cls)


def test_a_closed_connection_frees_every_tcb_in_both_directions():
    """A client-initiated (§7.1) and a connect-out (§7.2) connection close
    cleanly: the client's (or back-end's), P's and S's blocks are freed."""
    lan = ReplicatedLan(failover_ports=(PORT, 2000))
    refs = []

    def track(name, sock):
        refs.append((name, weakref.ref(sock.conn)))

    def replica(host):
        def app():
            listening = ListeningSocket.listen(host, PORT)
            sock = yield from listening.accept()
            track(f"{host.name} accepted", sock)
            assert (yield from sock.recv_until_eof()) == b"request"
            yield from sock.close_and_wait()
            listening.close()
            del sock
            out = SimSocket.connect(host, CLIENT_IP, 7000, local_port=2000)
            track(f"{host.name} connected", out)
            yield from out.wait_connected()
            yield from out.send_all(b"hello")
            assert (yield from out.recv_exactly(9)) == b"ack:hello"
            yield from out.close_and_wait()
        return app()

    def client():
        sock = SimSocket.connect(lan.client, lan.server_ip, PORT)
        track("client", sock)
        yield from sock.wait_connected()
        yield from sock.send_all(b"request")
        yield from sock.close_and_wait()
        del sock
        listening = ListeningSocket.listen(lan.client, 7000)
        back = yield from listening.accept()
        track("back-end", back)
        data = yield from back.recv_exactly(5)
        yield from back.send_all(b"ack:" + data)
        assert (yield from back.recv_until_eof()) == b""
        yield from back.close_and_wait()
        listening.close()

    lan.pair.run_app(replica)
    run_all(lan.sim, [client()], until=30.0)
    lan.run(until=lan.sim.now + 1.0)
    assert len(refs) == 6
    for host in (lan.client, lan.primary, lan.secondary):
        assert host.tcp.connections == {}, host.name
    assert _alive(refs) == []


@pytest.mark.parametrize("role", ["primary", "secondary"])
def test_a_restart_frees_the_dead_incarnation_at_once(role):
    """The replica's app is blocked in ``send_all`` (the client reads
    nothing) when its host crashes.  ``restart()`` forgets all TCP state:
    the block, the socket and the process holding them are freed at that
    instant, and the process never resumes."""
    lan = ReplicatedLan(failover_ports=(PORT,))
    refs = {}
    resumed = []

    def replica(host):
        listening = ListeningSocket.listen(host, PORT)
        sock = yield from listening.accept()
        refs[host.name] = [("tcb", weakref.ref(sock.conn)), ("socket", weakref.ref(sock))]
        try:
            yield from sock.send_all(bytes(1 << 20))
        except Exception:
            resumed.append(host.name)
        else:
            resumed.append(host.name)

    for host in (lan.primary, lan.secondary):
        process = host.spawn(replica(host), f"app@{host.name}")
        refs.setdefault("processes", []).append((host.name, weakref.ref(process)))
        del process

    SimSocket.connect(lan.client, lan.server_ip, PORT)  # and read nothing
    lan.run(until=1.0)  # both replicas' send buffers fill
    host = getattr(lan.pair, role)
    assert len(refs[host.name]) == 2 and _alive(refs[host.name]) == ["tcb", "socket"]
    host.crash()
    lan.run(until=lan.sim.now + 0.5)
    assert _alive(refs[host.name]) == ["tcb", "socket"]  # a crash frees nothing yet
    host.restart()
    assert _alive(refs[host.name]) == []
    assert _alive(refs["processes"]) == [
        name for name in ("primary", "secondary") if name != host.name
    ]
    lan.run(until=lan.sim.now + 1.0)
    assert host.name not in resumed


def test_crash_reintegrate_cycles_free_every_replaced_bridge():
    """Five crash → restart → reintegrate cycles, the crashed role
    alternating: every bridge a cycle replaces is freed with its
    connection state, and the pair's history pins none of them."""
    lan = ReplicatedLan(failover_ports=(PORT,), auto_reintegrate=True)
    pair = lan.pair
    blob = bytes(range(256)) * 256
    bridges = []
    connections_before = _count(BridgeConnection)

    def seen(*current):
        for bridge in current:
            if all(ref() is not bridge for _, ref in bridges):
                bridges.append((type(bridge).__name__, weakref.ref(bridge)))

    def serve(sock, written=0):
        try:
            yield from sock.send_all(blob[written:])
            yield from sock.close_and_wait()
        except ConnectionReset:
            pass

    def source(host):
        listening = ListeningSocket.listen(host, PORT)
        while True:
            sock = yield from listening.accept()
            host.spawn(serve(sock), f"serve@{host.name}")

    pair.run_app(source)
    pair.set_resume_app(lambda host, sock, resume: serve(sock, resume.written))

    def client():
        for cycle in range(5):
            seen(pair.primary_bridge, pair.secondary_bridge)
            sock = SimSocket.connect(lan.client, lan.server_ip, PORT, min_rto=0.05)
            yield from sock.wait_connected()
            host = pair.primary if cycle % 2 == 0 else pair.secondary
            lan.sim.schedule(0.005, host.crash)
            lan.sim.schedule(0.100, host.restart)
            assert (yield from sock.recv_until_eof()) == blob
            yield from sock.close_and_wait()
            del sock
            while len(pair.reintegrations) <= cycle or not pair.reintegrations[-1].merge_complete:
                yield 0.010
        seen(pair.primary_bridge, pair.secondary_bridge)

    pair.start_detectors()
    run_all(lan.sim, [client()], until=60.0)
    lan.run(until=lan.sim.now + 1.0)
    current = {id(pair.primary_bridge), id(pair.secondary_bridge)}
    replaced = [(name, ref) for name, ref in bridges if id(ref()) not in current]
    assert len(pair.reintegrations) == 5
    assert {name for name, _ in bridges} == {"PrimaryBridge", "SecondaryBridge"}
    assert len(replaced) >= 5
    assert _alive(replaced) == []
    assert pair.primary_bridge.connections == {}
    assert _count(BridgeConnection) == connections_before
