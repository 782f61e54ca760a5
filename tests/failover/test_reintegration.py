"""Reintegration: restore redundancy after a failover, survive a second one.

The paper leaves both post-failure states degraded forever (§5: the
promoted secondary "behaves as a standard TCP server"; §6: the primary
stays in direct mode).  These tests cover the repo's extension: a
restarted replica is re-admitted as live secondary mid-stream, the pair
returns to the paper's initial two-replica topology, and a *second*
crash — on either side — is again survivable with a byte-exact client
stream and zero resets.
"""

import pytest

from repro.apps.bulk import pattern_bytes
from repro.failover.reintegration import ReintegrationPhase
from repro.tcp.connection import ConnectionReset
from repro.tcp.socket_api import ListeningSocket, SimSocket
from tests.util import PRIMARY_IP, SECONDARY_IP, ChaosLan, ReplicatedLan, run_process

PORT = 80


def upload_workload(lan, blob):
    """Bulk upload through the service IP with warm-sync resume support.

    Returns ``(received, client)``: per-host receive buffers (grown
    chunk-by-chunk so a stalled run still shows progress) and the client
    generator.  The resume app adopts the survivor's already-consumed
    prefix — the replicated application is deterministic, so the first
    ``resume.read`` bytes are identical on both replicas.
    """
    received = {}

    def server_app(host):
        def app():
            listening = ListeningSocket.listen(host, PORT)
            sock = yield from listening.accept()
            data = received.setdefault(host.name, bytearray())
            try:
                while True:
                    chunk = yield from sock.recv(65536)
                    if not chunk:
                        break
                    data.extend(chunk)
                yield from sock.close_and_wait()
            except ConnectionReset:
                pass  # this replica was fenced or crashed mid-stream
        return app()

    def resume_server(host, sock, resume):
        def app():
            other = next(
                (buf for name, buf in received.items() if name != host.name),
                b"",
            )
            data = received.setdefault(host.name, bytearray())
            del data[:]
            data.extend(other[: resume.read])
            while True:
                chunk = yield from sock.recv(65536)
                if not chunk:
                    break
                data.extend(chunk)
            yield from sock.close_and_wait()
        return app()

    def client():
        sock = SimSocket.connect(lan.client, lan.server_ip, PORT, min_rto=0.05)
        yield from sock.wait_connected()
        yield from sock.send_all(blob)
        yield from sock.close_and_wait()

    lan.pair.set_resume_app(resume_server)
    lan.pair.run_app(server_app)
    return received, client


def test_rejoin_restores_pair_after_primary_crash():
    """Case A: §5 takeover happened; the reborn old primary rejoins as the
    new secondary and the pair returns to the exact paper topology with
    the hosts' roles (and addresses) swapped."""
    lan = ChaosLan(seed=3)
    lan.start_detectors()
    blob = pattern_bytes(2_000_000)
    received, client = upload_workload(lan, blob)
    old_primary, old_secondary = lan.primary, lan.secondary

    lan.sim.schedule(0.010, old_primary.crash)
    lan.sim.schedule(0.110, old_primary.restart)
    results = []
    lan.sim.schedule(0.140, lambda: results.append(lan.pair.reintegrate()))

    run_process(lan.sim, client(), until=60.0, settle=0.3)

    (result,) = results
    assert result.case == "rejoin"
    assert result.resumed == 1
    assert result.installed
    assert result.merge_complete

    # Roles swapped: the survivor is now the primary, the joiner secondary.
    assert lan.pair.primary is old_secondary
    assert lan.pair.secondary is old_primary
    assert not lan.pair.failed_over and not lan.pair.secondary_removed

    # Full address swap back to the paper topology: the survivor keeps
    # only the service address, the joiner holds only the standby one.
    assert old_secondary.ip.owns(PRIMARY_IP)
    assert not old_secondary.ip.owns(SECONDARY_IP)
    assert old_primary.ip.owns(SECONDARY_IP)
    assert not old_primary.ip.owns(PRIMARY_IP)

    # Both replicas hold the byte-exact stream: the survivor received it
    # live, the joiner via warm-sync prefix + resumed merge traffic.
    assert bytes(received[old_secondary.name]) == blob
    assert bytes(received[old_primary.name]) == blob

    assert lan.tracer.select(category="reintegration.complete")
    lan.checker.check_no_peer_reset(node="client")
    lan.assert_invariants()


def test_remerge_after_secondary_removal():
    """Case B: §6 left the primary in direct mode; the restarted secondary
    remerges through the *same* bridge, which flips back to merge mode.
    No addresses move and no roles change."""
    lan = ChaosLan(seed=4)
    lan.start_detectors()
    blob = pattern_bytes(2_000_000)
    received, client = upload_workload(lan, blob)
    bridge = lan.pair.primary_bridge

    lan.sim.schedule(0.010, lan.secondary.crash)
    lan.sim.schedule(0.110, lan.secondary.restart)
    results = []
    lan.sim.schedule(0.140, lambda: results.append(lan.pair.reintegrate()))

    run_process(lan.sim, client(), until=60.0, settle=0.3)

    (result,) = results
    assert result.case == "remerge"
    assert result.resumed == 1
    assert result.merge_complete
    # §6 direct mode was entered, then undone by the remerge.
    assert lan.tracer.select(category="bridge.p.secondary_failed")
    assert all(not bc.direct for bc in bridge.connections.values())
    # Same bridge object, same roles, same addresses.
    assert lan.pair.primary_bridge is bridge
    assert lan.pair.primary is lan.primary
    assert lan.pair.secondary is lan.secondary
    assert lan.primary.ip.owns(PRIMARY_IP) and not lan.primary.ip.owns(SECONDARY_IP)
    assert lan.secondary.ip.owns(SECONDARY_IP) and not lan.secondary.ip.owns(PRIMARY_IP)

    assert bytes(received["primary"]) == blob
    assert bytes(received["secondary"]) == blob
    lan.checker.check_no_peer_reset(node="client")
    lan.assert_invariants()


def test_double_failover_with_auto_reintegration():
    """E2E: primary crashes (§5 takeover), restarts and auto-rejoins as
    secondary, then the *new* primary crashes.  The client's stream is
    byte-exact with zero resets, and the flight recorder tiles two
    failover phase breakdowns plus one completed reintegration."""
    lan = ChaosLan(seed=6, auto_reintegrate=True)
    lan.start_detectors()
    blob = pattern_bytes(4_000_000)
    received, client = upload_workload(lan, blob)
    old_primary, old_secondary = lan.primary, lan.secondary

    lan.sim.schedule(0.010, old_primary.crash)
    lan.sim.schedule(0.110, old_primary.restart)  # auto-rejoin ~20 ms later
    # Second crash hits whichever host holds the primary role by then.
    lan.sim.schedule(0.320, lambda: lan.pair.primary.crash())

    run_process(lan.sim, client(), until=60.0, settle=0.5)

    assert len(lan.pair.reintegrations) == 1
    result = lan.pair.reintegrations[0]
    assert result.case == "rejoin" and result.merge_complete

    # The second crash killed the promoted survivor; the rejoined replica
    # took over again and carried the stream to the end.
    assert lan.pair.failed_over
    assert not old_secondary.alive
    assert old_primary.alive
    assert old_primary.ip.owns(PRIMARY_IP)
    assert bytes(received[old_primary.name]) == blob

    from repro.obs.flight import FlightRecorder

    recorder = FlightRecorder(lan.tracer)
    breakdowns = recorder.phase_breakdowns()
    assert len(breakdowns) == 2  # one tiling per takeover
    reints = recorder.reintegration_breakdowns()
    assert len(reints) == 1
    tiling = reints[0]
    assert not tiling.aborted and tiling.complete_time is not None
    assert [p.name for p in tiling.phases] == [
        "quiesce", "install", "rearm", "merge",
    ]

    lan.checker.check_no_peer_reset(node="client")
    lan.assert_invariants()


def test_reintegrate_requires_prior_failover():
    lan = ReplicatedLan()
    with pytest.raises(RuntimeError):
        lan.pair.reintegrate()


def test_reintegrate_refuses_dead_joiner():
    lan = ReplicatedLan()
    lan.start_detectors()
    lan.sim.schedule(0.010, lan.primary.crash)
    lan.run(until=0.100)
    assert lan.pair.failed_over
    with pytest.raises(RuntimeError):
        lan.pair.reintegrate()  # the old primary never restarted


def test_falsely_suspected_primary_steps_down():
    """Step-down fencing: the secondary wrongly declares the primary dead
    and takes over while the primary is still alive.  On seeing the
    gratuitous ARP for its own address the primary fences — it stops
    answering for the service IP, kills its replicas of the failover
    connections *silently* (no RST reaches the client), and the promoted
    secondary carries the stream alone.  No split-brain."""
    lan = ChaosLan(seed=7)  # detectors NOT started: failure is injected
    blob = pattern_bytes(600_000)
    received, client = upload_workload(lan, blob)

    lan.sim.schedule(0.010, lan.pair.force_primary_failover)
    run_process(lan.sim, client(), until=30.0, settle=0.3)

    assert lan.primary.alive  # it was never actually dead
    assert PRIMARY_IP in lan.primary.fenced_ips
    assert lan.tracer.select(category="host.fenced")
    assert lan.primary.bridge is None  # its failover plane stood down
    assert not lan.pair.primary_detector.started

    assert bytes(received["secondary"]) == blob
    lan.checker.check_no_peer_reset(node="client")
    lan.assert_invariants()


def test_joiner_crash_inside_install_delay_aborts():
    """The joiner dies between the snapshot and the install event (inside
    ``INSTALL_DELAY``): the run aborts once, nothing is installed on the
    corpse, and the pair stays failed over with its roles unchanged."""
    lan = ChaosLan(seed=3)
    lan.start_detectors()
    old_primary, old_secondary = lan.primary, lan.secondary
    lan.sim.schedule(0.010, old_primary.crash)
    lan.sim.schedule(0.110, old_primary.restart)
    results = []
    lan.sim.schedule(0.140, lambda: results.append(lan.pair.reintegrate()))
    lan.sim.schedule(0.1401, old_primary.crash)
    lan.run(until=0.300)

    (result,) = results
    assert result.phase is ReintegrationPhase.ABORTED
    assert result.installed is False
    (aborted,) = lan.tracer.select(category="reintegration.aborted")
    assert aborted.time == pytest.approx(0.1401)  # at the crash, not at install
    assert not lan.tracer.select(category="reintegration.installed")
    assert lan.pair.failed_over
    assert lan.pair.primary is old_primary
    assert lan.pair.secondary is old_secondary


@pytest.mark.parametrize("joiner_role", ["primary", "secondary"])
def test_aborted_reintegration_returns_the_survivor_to_direct_mode(joiner_role):
    """The joiner dies again inside ``INSTALL_DELAY`` of a rejoin (old
    primary) or a remerge (old secondary).  The attempt had switched the
    survivor's bridge to queue matching, and no detector is armed to
    notice the partner is gone: the abort must leave the bridge in §6
    direct mode, or the upload stalls with bytes parked for a dead peer."""
    lan = ChaosLan(seed=3)
    lan.start_detectors()
    blob = pattern_bytes(2_000_000)
    received, client = upload_workload(lan, blob)
    joiner = getattr(lan, joiner_role)
    survivor = lan.secondary if joiner is lan.primary else lan.primary

    lan.sim.schedule(0.010, joiner.crash)
    lan.sim.schedule(0.110, joiner.restart)
    results = []

    def reintegrate():
        results.append(lan.pair.reintegrate())

    lan.sim.schedule(0.140, reintegrate)
    lan.sim.schedule(0.1401, joiner.crash)

    run_process(lan.sim, client(), until=20.0, settle=0.3)

    (result,) = results
    assert result.aborted and not result.installed
    assert all(bc.direct for bc in survivor.bridge.connections.values())
    assert bytes(received[survivor.name]) == blob
    assert survivor.bridge in lan.checker.bridges
    lan.checker.check_no_peer_reset(node="client")
    lan.assert_invariants()
