"""Replica reintegration: restore redundancy after a failover.

The paper leaves both failure paths permanently degraded: after §5 the
promoted secondary "behaves as a standard TCP server", and after §6 the
primary drops merging forever.  This module closes that gap — it takes a
restarted (or fresh) replica and re-admits it as a live secondary on
*established* connections, so a second crash is survivable.

The protocol is a five-phase state machine (traced so the flight
recorder can tile it; see DESIGN.md):

``quiesce``
    The survivor's bridge is flipped (back) into queue-matching merge
    mode *atomically with* the snapshot: from this instant no fresh byte
    is emitted unmatched — it parks in the P queue until the joiner's
    matching byte arrives.  Retransmissions below the emission
    high-water mark keep flowing through the §4 fast path, so the peer
    is never starved of data it already saw.
``snapshot``
    Every resumable failover TCB is exported in the *peer's* numbering
    (the survivor's Δseq is applied on export; the new pairing's Δseq is
    then the identity for a promoted survivor, or the original offset
    for a §6 primary).  Connections already closing are not resumed:
    they bypass the bridge and finish as ordinary TCP.
``install``
    After :data:`INSTALL_DELAY` (models state-transfer time) the snapshots
    are installed into the joiner's TCP layer, a secondary bridge with
    promiscuous snoop + divert translations is installed, and the
    replicated application is warm-started via ``resume_app`` with the
    stream positions carried by each snapshot.
``rearm``
    Fault detectors are re-created on both sides (the caller's
    ``on_armed`` hook; :class:`~repro.failover.replicated.ReplicatedServerPair`
    also swaps its role bookkeeping here).
``merge``
    Runs until every resumed connection has emitted its first *matched*
    byte — from then on the pair is fully redundant again and another
    crash on either side is survivable.

The phases are explicit state (:class:`ReintegrationPhase`, carried on
the result): ``QUIESCE → SNAPSHOT → INSTALL → REARM → MERGE →
COMPLETE``, and every live phase aborts to ``ABORTED`` when either host
crashes mid-run (crash hooks registered on both sides) — a second crash
during reintegration must never install snapshots on a corpse or report
redundancy that does not exist.  An abort before the rearm sends a live
survivor's bridge to §6 direct mode, since no detector is armed yet to
do it.  The transition graph is declared in
:mod:`repro.analysis.specs.reintegration` and model-checked against
this file by ``repro lint --semantic``.

Address allocation: the survivor keeps the service address ``a_p`` it
took over (or always had); the joiner serves from its own configured
address behind the bridge translations, exactly like the paper's
original secondary.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Generator, List, Optional, Set, Tuple

from repro.failover.delta import SeqOffset
from repro.failover.options import FailoverConfig
from repro.failover.primary import BridgeKey, ConnectionResume, PrimaryBridge
from repro.failover.secondary import SecondaryBridge
from repro.net.addresses import Ipv4Address
from repro.tcp.connection import (
    ConnectionReset,
    TcpConnection,
    TcpSnapshot,
    TcpState,
    TRANSFERABLE_STATES,
)
from repro.tcp.socket_api import SimSocket

if TYPE_CHECKING:
    from repro.net.host import Host


@dataclass
class AppResume:
    """Warm-sync context handed to a ``resume_app`` factory.

    ``written``/``read`` are the byte counts the *survivor's* application
    had produced/consumed on this connection at snapshot time; a
    deterministic replica resumes by regenerating (or copying) exactly
    that prefix and continuing from there.
    """

    written: int
    read: int
    snapshot: TcpSnapshot


#: Snapshot-to-install delay: the modelled state-transfer time.
INSTALL_DELAY = 200e-6

# A resume-app factory: (joiner host, adopted socket, resume info) -> process.
ResumeApp = Callable[[object, SimSocket, AppResume], Generator]


class ReintegrationPhase(enum.Enum):
    """The five-phase machine from the module docstring, made explicit.

    ``QUIESCE``/``SNAPSHOT`` happen atomically inside the starting event;
    ``INSTALL``/``REARM``/``MERGE`` are separate simulation events, so a
    crash of either host can interleave — any live phase aborts.  The
    declared transition graph lives in
    :mod:`repro.analysis.specs.reintegration` and is model-checked
    against this file by ``repro lint --semantic``.
    """

    QUIESCE = "QUIESCE"
    SNAPSHOT = "SNAPSHOT"
    INSTALL = "INSTALL"
    REARM = "REARM"
    MERGE = "MERGE"
    COMPLETE = "COMPLETE"
    ABORTED = "ABORTED"


#: Phases during which a crash (or a second reintegration attempt) must
#: abort the run; the two terminal phases are excluded.
LIVE_PHASES = (
    ReintegrationPhase.QUIESCE,
    ReintegrationPhase.SNAPSHOT,
    ReintegrationPhase.INSTALL,
    ReintegrationPhase.REARM,
    ReintegrationPhase.MERGE,
)


@dataclass
class ReintegrationResult:
    """Mutable record of one reintegration run (completed asynchronously)."""

    case: str  # "rejoin" (survivor was promoted, §5) or "remerge" (§6)
    survivor: str
    joiner: str
    phase: ReintegrationPhase = ReintegrationPhase.QUIESCE
    resumed_keys: List[BridgeKey] = field(default_factory=list)
    bypassed_keys: List[BridgeKey] = field(default_factory=list)
    snapshot_bytes: int = 0
    installed: bool = False
    merge_complete: bool = False

    @property
    def resumed(self) -> int:
        return len(self.resumed_keys)

    @property
    def bypassed(self) -> int:
        return len(self.bypassed_keys)

    @property
    def aborted(self) -> bool:
        return self.phase is ReintegrationPhase.ABORTED


def export_resumable_connections(
    survivor: "Host",
    config: FailoverConfig,
    bridge: Optional[PrimaryBridge],
) -> Tuple[List[TcpSnapshot], List[ConnectionResume], List[BridgeKey]]:
    """Snapshot the survivor's resumable failover TCBs.

    Returns ``(snapshots, resumes, bypass_keys)``.  A connection resumes
    when it is in a transferable state and its bridge state (if any) is
    not broken; its Δseq comes from the existing bridge connection when
    one exists (§6 survivor, still in the primary's own numbering) and is
    the identity otherwise (promoted survivor, already in peer numbering).

    Half-open connections (handshake not finished) are *dropped* locally
    instead of bypassed: nothing is acked to the peer beyond the ISN, so
    the peer's SYN retransmission re-establishes through the restored
    merge bridge as a fully replicated connection — bypassing them would
    leave the eventual connection unprotected on the survivor forever.
    """
    snapshots: List[TcpSnapshot] = []
    resumes: List[ConnectionResume] = []
    bypass: List[BridgeKey] = []
    for conn in list(survivor.tcp.connections.values()):
        if not config.covers(conn.local_port, conn.failover):
            continue
        key: BridgeKey = (conn.remote_ip, conn.remote_port, conn.local_port)
        bc = bridge.connections.get(key) if bridge is not None else None
        delta = bc.delta if bc is not None and bc.delta is not None else SeqOffset.identity()
        resumable = conn.state in TRANSFERABLE_STATES and not (
            bc is not None and bc.broken
        )
        if not resumable:
            if conn.state in (TcpState.SYN_SENT, TcpState.SYN_RCVD):
                conn._destroy(ConnectionReset(
                    f"{survivor.name}: half-open at reintegration"
                ))
                if bridge is not None:
                    bridge.connections.pop(key, None)
                continue
            if bc is None:
                # No bridge state to keep it coherent: let it finish as
                # plain TCP, unbridged.
                bypass.append(key)
            continue
        snap = conn.export_state(map_seq=delta.p_to_s)
        snapshots.append(snap)
        resumes.append(
            ConnectionResume(
                peer_ip=conn.remote_ip,
                peer_port=conn.remote_port,
                local_ip=conn.local_ip,
                local_port=conn.local_port,
                delta=delta,
                frontier=snap.snd_max,
                ack=snap.rcv_nxt,
                window=snap.recv_window,
                mss=snap.mss,
                role="server",
                peer_fin_end=snap.rcv_nxt if snap.fin_received else None,
            )
        )
    return snapshots, resumes, bypass


def spawn_resume_apps(
    host: "Host",
    conns: List[TcpConnection],
    snapshots: List[TcpSnapshot],
    resume_app: ResumeApp,
) -> None:
    """Warm-start ``resume_app`` on each connection installed on ``host``
    from the matching snapshot, at the stream positions it carries."""
    for conn, snap in zip(conns, snapshots):
        host.spawn(
            resume_app(
                host,
                SimSocket(conn),
                AppResume(
                    written=snap.stream_written,
                    read=snap.stream_read,
                    snapshot=snap,
                ),
            ),
            f"resume@{host.name}:{conn.local_port}",
        )


def perform_reintegration(
    survivor: "Host",
    joiner: "Host",
    config: FailoverConfig,
    service_ip: Ipv4Address,
    primary_bridge: Optional[PrimaryBridge] = None,
    resume_app: Optional[ResumeApp] = None,
    warm_sync: Optional[Callable[["Host", "Host"], None]] = None,
    on_armed: Optional[
        Callable[[ReintegrationResult, PrimaryBridge, SecondaryBridge], None]
    ] = None,
    ack_merging: bool = True,
    window_merging: bool = True,
) -> ReintegrationResult:
    """Re-admit ``joiner`` as the live secondary of ``survivor``.

    Pass ``primary_bridge`` when the survivor already runs one (a §6
    primary whose secondary died — its connections flip back from direct
    mode); leave it ``None`` for a promoted survivor (a fresh merging
    bridge is built, identity Δseq).  ``on_armed`` runs inside the
    install event, after the joiner's bridge and connections are live, with
    the result and the two bridges — detector re-arming and role
    bookkeeping belong there.  The result keeps no bridge: a pair's
    reintegration history must not pin the ones a later cycle replaces.

    ``warm_sync(survivor, joiner)`` runs once at install time, *before*
    the per-connection resume apps, and regardless of whether any
    connection is still resumable: application state whose connections
    already closed (bytes acked to a client and then delivered to the
    app) must be copied too, or a second failure of the survivor loses
    them even though the transport layer never did.
    """
    sim = survivor.sim
    tracer = survivor.tracer
    joiner_ip = joiner.ip.primary_address()
    case = "remerge" if primary_bridge is not None else "rejoin"
    metrics = survivor.metrics
    m_attempts = metrics.counter("reintegration.attempts", host=survivor.name)
    m_resumed = metrics.counter("reintegration.connections_resumed", host=survivor.name)
    m_bypassed = metrics.counter("reintegration.connections_bypassed", host=survivor.name)
    m_bytes = metrics.counter("reintegration.snapshot_bytes", host=survivor.name)
    m_complete = metrics.counter("reintegration.completed", host=survivor.name)
    m_attempts.inc()

    result = ReintegrationResult(case=case, survivor=survivor.name, joiner=joiner.name)
    tracer.emit(
        sim.now, "reintegration.start", survivor.name,
        joiner=joiner.name, case=case,
    )

    # ---- quiesce + snapshot: one atomic simulation event --------------
    if primary_bridge is None:
        bridge = PrimaryBridge(
            survivor,
            config,
            joiner_ip,
            tracer=tracer,
            ack_merging=ack_merging,
            window_merging=window_merging,
        )
    else:
        bridge = primary_bridge

    snapshots, resumes, bypass = export_resumable_connections(survivor, config, bridge)
    bridge.bypass_keys.update(bypass)
    if survivor.bridge is not bridge:
        bridge.install()
    bridge.resume_merge(joiner_ip, resumes)
    result.resumed_keys = [r.key for r in resumes]
    result.bypassed_keys = list(bypass)
    result.snapshot_bytes = sum(
        len(s.send_data) + len(s.recv_pending) for s in snapshots
    )
    m_resumed.inc(len(resumes))
    m_bypassed.inc(len(bypass))
    m_bytes.inc(result.snapshot_bytes)
    tracer.emit(
        sim.now, "reintegration.snapshot", survivor.name,
        conns=len(snapshots), bypassed=len(bypass), bytes=result.snapshot_bytes,
    )
    result.phase = ReintegrationPhase.SNAPSHOT

    # ---- merge-completion watch ---------------------------------------
    pending: Set[BridgeKey] = set(result.resumed_keys)

    def merged(key: BridgeKey) -> None:
        pending.discard(key)
        if not pending and not result.merge_complete:
            complete()

    def complete() -> None:
        if result.phase is not ReintegrationPhase.MERGE:
            return  # aborted mid-flight, or a stray late merge callback
        result.phase = ReintegrationPhase.COMPLETE
        result.merge_complete = True
        detach_hooks()
        m_complete.inc()
        tracer.emit(
            sim.now, "reintegration.complete", survivor.name,
            resumed=result.resumed, joiner=joiner.name,
        )

    def abort(reason: str) -> None:
        if result.phase not in LIVE_PHASES:
            return
        armed = result.phase is ReintegrationPhase.MERGE
        result.phase = ReintegrationPhase.ABORTED
        detach_hooks()
        tracer.emit(
            sim.now, "reintegration.aborted", survivor.name,
            joiner=joiner.name, reason=reason,
        )
        # The quiesce put the survivor's bridge in merge mode and no
        # detector is armed to notice that the partner is gone: leave it
        # where §6 leaves a bridge whose secondary died.  (Looked up on the
        # host: a reference to ``bridge`` here would close a cycle through
        # its ``on_resume_merged`` callback.)
        active = survivor.bridge
        if survivor.alive and not armed and isinstance(active, PrimaryBridge):
            active.secondary_failed()

    def _abort_on_crash(host: "Host") -> None:
        abort(f"{host.name} crashed")

    def detach_hooks() -> None:
        survivor.remove_crash_hook(_abort_on_crash)
        joiner.remove_crash_hook(_abort_on_crash)

    survivor.add_crash_hook(_abort_on_crash)
    joiner.add_crash_hook(_abort_on_crash)

    if pending:
        bridge.on_resume_merged = merged

    # ---- install on the joiner after the transfer delay ---------------
    def do_install() -> None:
        if result.phase is not ReintegrationPhase.SNAPSHOT:
            return  # a crash hook already aborted the run
        if not joiner.alive or not survivor.alive:
            abort("host dead at install time")
            return
        result.phase = ReintegrationPhase.INSTALL
        joiner_bridge = SecondaryBridge(
            joiner, config.copy(), service_ip, tracer=tracer
        )
        conns: List[TcpConnection] = []
        for snap in snapshots:
            conns.append(joiner.tcp.install_connection(snap, local_ip=joiner_ip))
        joiner_bridge.install()
        # Refresh the segment's idea of our MAC (stale caches from before
        # the crash would black-hole heartbeats to the reborn NIC).
        joiner.eth_interface.arp.announce(joiner_ip)
        result.installed = True
        tracer.emit(
            sim.now, "reintegration.installed", joiner.name,
            conns=len(conns), survivor=survivor.name,
        )
        if warm_sync is not None:
            warm_sync(survivor, joiner)
        if resume_app is not None:
            spawn_resume_apps(joiner, conns, snapshots, resume_app)
        result.phase = ReintegrationPhase.REARM
        if on_armed is not None:
            on_armed(result, bridge, joiner_bridge)
        tracer.emit(
            sim.now, "reintegration.armed", survivor.name, joiner=joiner.name
        )
        result.phase = ReintegrationPhase.MERGE
        if not pending:
            complete()  # nothing to merge: redundancy is restored already

    sim.schedule(INSTALL_DELAY, do_install)
    return result
