"""Property-based end-to-end invariants (DESIGN.md §5).

Hypothesis drives randomized crash instants, stream sizes and loss
patterns through the full stack; the invariants must hold in every case:

1. stream integrity across failover;
2. transparency (no client-visible RST);
3. the bridge never acknowledges a byte the secondary lacks.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import bulk
from repro.failover.merge import AckWindowMerge
from repro.net.faults import Drop
from repro.tcp.seqnum import SEQ_MOD, seq_add, seq_le, seq_sub
from repro.tcp.socket_api import ListeningSocket, SimSocket
from tests.util import ReplicatedLan, nth_data_frames, run_all

PORT = 80

FAST = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@FAST
@given(
    size=st.integers(min_value=1, max_value=150_000),
    crash_ms=st.integers(min_value=1, max_value=80),
    seed=st.integers(min_value=0, max_value=1000),
    crash=st.sampled_from(["primary", "secondary", "none"]),
)
def test_download_integrity_any_crash_instant(size, crash_ms, seed, crash):
    lan = ReplicatedLan(failover_ports=(PORT,), seed=seed)
    lan.start_detectors()
    lan.pair.run_app(lambda host: bulk.source_server(host, PORT, size))

    def client():
        sock = SimSocket.connect(lan.client, lan.server_ip, PORT, min_rto=0.05)
        yield from sock.wait_connected()
        yield from sock.send_all(b"PULL")
        data = yield from sock.recv_exactly(size)
        yield from sock.close_and_wait()
        return data

    if crash == "primary":
        lan.sim.schedule(crash_ms / 1000.0, lan.pair.crash_primary)
    elif crash == "secondary":
        lan.sim.schedule(crash_ms / 1000.0, lan.pair.crash_secondary)
    (data,) = run_all(lan.sim, [client()], until=120.0)
    assert data == bulk.pattern_bytes(size)
    assert lan.tracer.select(category="tcp.rst_received", node="client") == []
    assert lan.pair.primary_bridge.mismatches == 0


@FAST
@given(
    size=st.integers(min_value=1, max_value=120_000),
    crash_ms=st.integers(min_value=1, max_value=60),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_upload_integrity_primary_crash(size, crash_ms, seed):
    """Requirement 2 of §2 as a property: whatever was acknowledged to the
    client must be present at the surviving secondary, so the full upload
    must complete exactly."""
    lan = ReplicatedLan(failover_ports=(PORT,), seed=seed)
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
    blob = bulk.pattern_bytes(size)

    def client():
        sock = SimSocket.connect(lan.client, lan.server_ip, PORT, min_rto=0.05)
        yield from sock.wait_connected()
        yield from sock.send_all(blob)
        yield from sock.close_and_wait()

    lan.sim.schedule(crash_ms / 1000.0, lan.pair.crash_primary)
    run_all(lan.sim, [client()], until=120.0)
    assert received.get("secondary") == blob


@FAST
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    drops=st.lists(st.integers(min_value=0, max_value=40), max_size=5),
)
def test_integrity_under_snoop_loss(seed, drops):
    """Random snoop losses at the secondary must never corrupt the stream
    nor let the bridge acknowledge data the secondary is missing."""
    lan = ReplicatedLan(failover_ports=(PORT,), seed=seed)
    lan.attach_checks()
    lan.plane.rule("snoop-loss", Drop(), point="nic:secondary",
                   match=nth_data_frames(drops))
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
    blob = bulk.pattern_bytes(80_000)

    def client():
        sock = SimSocket.connect(lan.client, lan.server_ip, PORT, min_rto=0.05)
        yield from sock.wait_connected()
        yield from sock.send_all(blob)
        yield from sock.close_and_wait()

    run_all(lan.sim, [client()], until=120.0)
    assert received.get("primary") == blob
    assert received.get("secondary") == blob
    assert lan.checker.ok, lan.checker.report()


@FAST
@given(
    script=st.lists(
        st.tuples(
            st.sampled_from(["BROWSE", "BUY"]),
            st.sampled_from(["anvil", "rocket-skates", "tnt-crate", "nothing"]),
            st.integers(min_value=1, max_value=3),
        ),
        min_size=1,
        max_size=6,
    ),
    crash_ms=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=100),
)
def test_store_replies_identical_to_unreplicated_reference(script, crash_ms, seed):
    """The replicated store (with a crash!) answers exactly like a plain
    single-server store would — full linearizable transparency."""
    from repro.apps.store import Store, shopping_session, store_server

    commands = [
        f"{verb} {sku}" if verb == "BROWSE" else f"{verb} {sku} {qty}"
        for verb, sku, qty in script
    ] + ["QUIT"]

    # Reference: run the commands against a plain in-process store.
    reference_store = Store()
    expected = []
    for command in commands:
        reply = reference_store.handle(command)
        expected.append("BYE" if reply is None else reply)

    lan = ReplicatedLan(failover_ports=(8080,), seed=seed)
    lan.start_detectors()
    lan.pair.run_app(lambda host: store_server(host, 8080))
    results = {}

    def client():
        yield from shopping_session(lan.client, lan.server_ip, 8080, commands, results)

    lan.sim.schedule(crash_ms / 1000.0, lan.pair.crash_primary)
    run_all(lan.sim, [client()], until=60.0)
    assert results["replies"] == expected


# ----------------------------------------------------------------------
# the min-ACK / min-window merge as algebraic properties (§3.2, §3.4)
# ----------------------------------------------------------------------

# ACK sequences straddle the 2^32 wrap: a base just below the wrap point
# plus monotonically accumulating advances, fed to either replica's side
# of the merge in an arbitrary interleaving.
_merge_events = st.lists(
    st.tuples(
        st.sampled_from(["p", "s"]),
        st.integers(min_value=0, max_value=9000),   # ack advance
        st.integers(min_value=0, max_value=65535),  # advertised window
    ),
    min_size=1,
    max_size=40,
)


@FAST
@given(
    base=st.integers(min_value=SEQ_MOD - 70_000, max_value=SEQ_MOD - 1),
    events=_merge_events,
)
def test_merged_ack_is_min_and_window_is_min_across_wrap(base, events):
    """The merged ACK never exceeds either replica's own ACK (requirement
    2 of §2) and the advertised window is min(win_P, win_S) — including
    when the ACKs cross the 32-bit wrap mid-sequence."""
    merge = AckWindowMerge()
    ack_p = ack_s = base
    for side, advance, window in events:
        if side == "p":
            ack_p = seq_add(ack_p, advance)
            merge.update_from_primary(ack_p, window)
        else:
            ack_s = seq_add(ack_s, advance)
            merge.update_from_secondary(ack_s, window)
        merged = merge.merged_ack()
        if merged is not None:
            assert seq_le(merged, merge.ack_p)
            assert seq_le(merged, merge.ack_s)
            assert merged in (merge.ack_p, merge.ack_s)
        assert merge.merged_window() == min(merge.win_p, merge.win_s)


@FAST
@given(
    base=st.integers(min_value=0, max_value=SEQ_MOD - 1),
    events=_merge_events,
)
def test_empty_ack_fires_only_on_merged_advance(base, events):
    """§3.4's deadlock-prevention rule is edge-triggered: an empty ACK is
    due exactly when the merged ACK moves past the last one sent."""
    merge = AckWindowMerge()
    ack_p = ack_s = base
    for side, advance, window in events:
        if side == "p":
            ack_p = seq_add(ack_p, advance)
            merge.update_from_primary(ack_p, window)
        else:
            ack_s = seq_add(ack_s, advance)
            merge.update_from_secondary(ack_s, window)
        merged = merge.merged_ack()
        if merged is None:
            assert not merge.should_send_empty_ack()
            continue
        if merge.should_send_empty_ack():
            # Sending it clears the edge until the merge advances again.
            assert merge.last_sent_ack is None or seq_sub(
                merged, merge.last_sent_ack
            ) > 0
            merge.note_sent(merged)
            assert not merge.should_send_empty_ack()
        else:
            assert merge.last_sent_ack == merged or seq_le(
                merged, merge.last_sent_ack
            )


# ----------------------------------------------------------------------
# reintegration cycles: Δseq and the re-seeded merge across 2^32 wrap
# ----------------------------------------------------------------------

_cycle_events = st.lists(
    st.tuples(
        st.sampled_from(["p", "s"]),
        st.integers(min_value=0, max_value=9000),   # ack advance
        st.integers(min_value=1, max_value=65535),  # advertised window
    ),
    min_size=1,
    max_size=25,
)


@FAST
@given(
    iss_p=st.integers(min_value=0, max_value=SEQ_MOD - 1),
    iss_s=st.integers(min_value=0, max_value=SEQ_MOD - 1),
    offsets=st.lists(
        st.integers(min_value=0, max_value=200_000), min_size=1, max_size=20
    ),
)
def test_delta_seq_correct_across_reintegration_cycles(iss_p, iss_s, offsets):
    """Δseq correctness through a failover + Case-A reintegration:

    cycle 1 maps P-space to the client-visible S-space via Δseq = P_iss −
    S_iss; after the takeover the survivor speaks S-space natively, so
    the reintegration resume carries the identity Δseq and composition
    must leave the wire numbering untouched — for any ISS pair, including
    ones whose mapped values cross the 2^32 wrap."""
    from repro.failover.delta import SeqOffset

    d1 = SeqOffset(iss_p, iss_s)
    d2 = SeqOffset.identity()  # cycle 2: survivor already in wire numbering
    for n in offsets:
        x = seq_add(iss_p, n)
        wire = d1.p_to_s(x)
        # Round-trip and order/stride preservation across the wrap.
        assert d1.s_to_p(wire) == x
        assert wire == seq_add(d1.p_to_s(iss_p), n)
        # The second cycle's identity delta must not move the numbering.
        assert d2.p_to_s(wire) == wire
        assert d2.s_to_p(wire) == wire


@FAST
@given(
    base=st.integers(min_value=SEQ_MOD - 50_000, max_value=SEQ_MOD - 1),
    cycles=st.lists(_cycle_events, min_size=2, max_size=3),
)
def test_resume_merge_min_and_monotone_across_cycles(base, cycles):
    """Min-merge invariants survive >= 2 consecutive failover +
    reintegration cycles whose ACK levels cross the 2^32 wrap.

    Each cycle re-seeds a fresh merge exactly as ``resume_merge`` does
    (both sides updated with the snapshot ACK, which is then noted as
    sent, so an idle resume provokes no spurious empty ACK).  Within and
    across cycles the merged ACK never exceeds either replica's own ACK
    and the emitted ACK level never regresses."""
    ack = base
    last_emitted = None
    for events in cycles:
        merge = AckWindowMerge()
        merge.update_from_primary(ack, 65535)
        merge.update_from_secondary(ack, 65535)
        merge.note_sent(ack)
        assert not merge.should_send_empty_ack()
        ack_p = ack_s = ack
        for side, advance, window in events:
            if side == "p":
                ack_p = seq_add(ack_p, advance)
                merge.update_from_primary(ack_p, window)
            else:
                ack_s = seq_add(ack_s, advance)
                merge.update_from_secondary(ack_s, window)
            merged = merge.merged_ack()
            assert seq_le(merged, ack_p) and seq_le(merged, ack_s)
            assert merged in (ack_p, ack_s)
            if last_emitted is not None:
                assert seq_le(last_emitted, merged)
            if merge.should_send_empty_ack():
                merge.note_sent(merged)
                last_emitted = merged
        # Failover: the survivor (here: the secondary) is promoted and its
        # own ACK level is where the next cycle's snapshot resumes.
        assert seq_le(merge.merged_ack(), ack_s)
        ack = ack_s
