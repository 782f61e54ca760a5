"""One-call assembly of a replicated TCP-failover server pair.

Wires the primary and secondary bridges, the fault detectors (in both
directions — §5 and §6 are symmetric in who watches whom) and runs the
same application factory on both hosts.  The application must be
deterministic per connection (§1); the bridge detects divergence and the
tests assert on it.

Beyond the paper, the pair also *recovers redundancy*: after a failover,
a restarted replica can be re-admitted as the live secondary
(:meth:`ReplicatedServerPair.reintegrate`), returning the pair to the
initial two-replica configuration with roles swapped — so a second
crash, on either side, is again survivable.  The paper leaves both
post-failure states degraded forever (§5: the promoted secondary
"behaves as a standard TCP server"; §6: the primary stays in direct
mode); see DESIGN.md for the reintegration state machine.
"""

from __future__ import annotations

from typing import Callable, Generator, Iterable, List, Optional

from repro.failover.detector import FaultDetector
from repro.net.addresses import Ipv4Address, MacAddress
from repro.failover.options import FailoverConfig
from repro.failover.primary import PrimaryBridge
from repro.failover.reintegration import (
    ReintegrationResult,
    ResumeApp,
    perform_reintegration,
)
from repro.failover.secondary import SecondaryBridge
from repro.failover.takeover import TakeoverProcedure, perform_ip_takeover
from repro.net.host import Host
from repro.obs.spans import SpanContext

#: §5: the secondary's local reconfiguration time between its gratuitous
#: ARP and its bridge resuming transmission.
TAKEOVER_RESUME_DELAY = 200e-6
#: A restarted replica waits this long before it rejoins (``auto_reintegrate``).
REINTEGRATE_DELAY = 0.020


class ReplicatedServerPair:
    """A primary/secondary pair running an actively replicated service."""

    def __init__(
        self,
        primary: Host,
        secondary: Host,
        failover_ports: Iterable[int] = (),
        detector_interval: float = 0.010,
        detector_timeout: float = 0.050,
        ack_merging: bool = True,
        window_merging: bool = True,
        auto_reintegrate: bool = False,
    ):
        if primary.sim is not secondary.sim:
            raise ValueError("both hosts must share one simulator")
        self.sim = primary.sim
        self.primary = primary
        self.secondary = secondary
        self.primary_ip = primary.ip.primary_address()
        self.secondary_ip = secondary.ip.primary_address()
        self.auto_reintegrate = auto_reintegrate
        self.detector_interval = detector_interval
        self.detector_timeout = detector_timeout
        self.ack_merging = ack_merging
        self.window_merging = window_merging
        # §7: "the user must specify the same set of ports on the primary
        # server host and the secondary server host" — one config, two copies.
        self.primary_config = FailoverConfig(failover_ports)
        self.secondary_config = self.primary_config.copy()

        self.primary_bridge = PrimaryBridge(
            primary,
            self.primary_config,
            self.secondary_ip,
            ack_merging=ack_merging,
            window_merging=window_merging,
        )
        self.secondary_bridge = SecondaryBridge(
            secondary, self.secondary_config, self.primary_ip
        )
        self.primary_bridge.install()
        self.secondary_bridge.install()

        # Step-down fencing allowlist: only the peer replica's gratuitous
        # ARP may fence this side off an address.  Without it, any host on
        # the segment could forge one announcement and knock the live
        # primary out of service (see tests/adversary).
        if (
            primary._eth_interface is not None
            and secondary._eth_interface is not None
        ):
            primary.eth_interface.arp.trusted_claimants.add(secondary.nic.mac)
            secondary.eth_interface.arp.trusted_claimants.add(primary.nic.mac)

        self._arm_detectors()
        self.failed_over = False
        self.secondary_removed = False
        # The in-flight (or completed) §5 takeover procedure, if any.
        self.takeover: Optional[TakeoverProcedure] = None
        self._detectors_started = False
        self._resume_app: Optional[ResumeApp] = None
        self._warm_sync: Optional[Callable[[Host, Host], None]] = None
        self._app_factory: Optional[Callable[[Host], Generator]] = None
        # Callbacks fired (with this pair) when a rejoin's quiesce installs
        # a fresh primary bridge and after each completed re-arm; invariant
        # checkers use them to re-attach to the new bridge.
        self.on_reintegrated: List[Callable[["ReplicatedServerPair"], None]] = []
        self.reintegrations: List[ReintegrationResult] = []
        # Open root span of an in-flight reintegration (closed in _rearm).
        self._reintegrate_ctx: Optional[SpanContext] = None
        # Step-down fencing: if a host of this pair fences an address
        # (it was falsely suspected and a peer took over), silence its
        # failover plane too — detector and bridge.
        for host in (primary, secondary):
            host.add_address_conflict_handler(self._make_fence_handler(host))
            host.add_restart_hook(self._replica_restarted)

    # ------------------------------------------------------------------
    # configuration and application startup
    # ------------------------------------------------------------------

    def add_failover_port(self, port: int) -> None:
        self.primary_config.add_port(port)
        self.secondary_config.add_port(port)

    def _arm_detectors(self) -> None:
        """Each replica watches the other: the primary's detector runs §6,
        the secondary's §5."""
        self.primary_detector = FaultDetector(
            self.primary,
            self.secondary_ip,
            on_failure=self._secondary_failed,
            interval=self.detector_interval,
            timeout=self.detector_timeout,
        )
        self.secondary_detector = FaultDetector(
            self.secondary,
            self.primary_ip,
            on_failure=self._primary_failed,
            interval=self.detector_interval,
            timeout=self.detector_timeout,
        )

    def start_detectors(self) -> None:
        self._detectors_started = True
        self.primary_detector.start()
        self.secondary_detector.start()

    def run_app(
        self, factory: Callable[[Host], Generator], name: str = "app"
    ) -> None:
        """Run the same (deterministic) application on both replicas."""
        self._app_factory = factory
        self.primary.spawn(factory(self.primary), f"{name}@P")
        self.secondary.spawn(factory(self.secondary), f"{name}@S")

    def set_resume_app(self, factory: Optional[ResumeApp]) -> None:
        """Warm-sync factory used to restart the app on a rejoining replica.

        Called once per resumed connection as ``factory(host, socket,
        resume)`` where ``resume`` carries the byte counts the survivor's
        application had already written/read (see
        :class:`~repro.failover.reintegration.AppResume`).
        """
        self._resume_app = factory

    def set_warm_sync(self, sync: Optional[Callable[[Host, Host], None]]) -> None:
        """Whole-application state copy run once at reintegration install.

        ``sync(survivor, joiner)`` must bring over application state whose
        connections have already closed — the per-connection resume app
        only covers live connections, and bytes the survivor acked before
        the joiner came back would otherwise die with the survivor."""
        self._warm_sync = sync

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------

    def crash_primary(self) -> None:
        """Fail-stop the primary; recovery runs when the detector fires."""
        self.primary.crash()

    def crash_secondary(self) -> None:
        self.secondary.crash()

    def _primary_failed(self) -> None:
        """Detector on the secondary fired: run the §5 takeover."""
        if self.failed_over:
            return
        self.failed_over = True
        self.takeover = perform_ip_takeover(
            self.secondary_bridge,
            self.primary_ip,
            resume_delay=TAKEOVER_RESUME_DELAY,
        )

    def _secondary_failed(self) -> None:
        """Detector on the primary fired: run the §6 procedure."""
        if self.secondary_removed:
            return
        self.secondary_removed = True
        self.primary_bridge.secondary_failed()

    # ------------------------------------------------------------------
    # manual triggers (tests/benchmarks that want exact timing)
    # ------------------------------------------------------------------

    def force_primary_failover(self) -> None:
        self._primary_failed()

    def force_secondary_removal(self) -> None:
        self._secondary_failed()

    @property
    def service_ip(self) -> Ipv4Address:
        """The address clients connect to (survives every role change)."""
        return self.primary_ip

    # ------------------------------------------------------------------
    # step-down fencing (false suspicion)
    # ------------------------------------------------------------------

    def _make_fence_handler(
        self, host: Host
    ) -> Callable[[Ipv4Address, MacAddress], None]:
        def handler(ip: Ipv4Address, mac: MacAddress) -> None:
            self._host_fenced(host)

        return handler

    def _host_fenced(self, host: Host) -> None:
        """``host`` yielded an address after a conflict: take its failover
        plane down too, so the fenced loser never argues with the taker."""
        if host is self.primary:
            self.primary_detector.stop()
        elif host is self.secondary:
            self.secondary_detector.stop()
        if self.takeover is not None and self.takeover.host is host:
            # An in-flight §5 takeover on the fenced host must never
            # resume transmission on the address it just yielded.
            self.takeover.fence()
        host.remove_bridge()

    # ------------------------------------------------------------------
    # reintegration: restore redundancy after a failover
    # ------------------------------------------------------------------

    def _replica_restarted(self, host: Host) -> None:
        """Restart hook: optionally re-admit the reborn replica."""
        if not self.auto_reintegrate:
            return
        self.sim.schedule(REINTEGRATE_DELAY, self._auto_rejoin, host)

    def _auto_rejoin(self, host: Host) -> None:
        # Only the replica whose failure was handled rejoins, and only if it
        # is still up and its peer still serves alone.
        if host.alive and (
            (host is self.primary and self.failed_over and not self.secondary_removed)
            or (host is self.secondary and self.secondary_removed and not self.failed_over)
        ):
            self.reintegrate(joiner=host)

    def reintegrate(self, joiner: Optional[Host] = None) -> ReintegrationResult:
        """Re-admit ``joiner`` (default: the replica that died) as the live
        secondary of the current survivor.

        Two cases, mirroring the two failure paths:

        * after a §5 takeover (``failed_over``) the survivor is the
          promoted secondary — it keeps the service address; the joiner
          takes over the survivor's native address (a full address swap
          when the joiner is the reborn old primary, which still owns the
          service address from before its crash);
        * after a §6 removal (``secondary_removed``) the survivor is the
          original primary and its existing bridge flips back from direct
          to merge mode; no addresses move.

        Either way the pair ends in the initial configuration (possibly
        with the hosts' roles swapped) and both failure paths are armed
        again.  Returns the (asynchronously completed)
        :class:`~repro.failover.reintegration.ReintegrationResult`.
        """
        if self.failed_over and self.secondary_removed:
            raise RuntimeError("no survivor left to reintegrate with")
        if not (self.failed_over or self.secondary_removed):
            raise RuntimeError("no failover happened; nothing to reintegrate")
        rejoin = self.failed_over
        survivor = self.secondary if rejoin else self.primary
        joiner = joiner or (self.primary if rejoin else self.secondary)
        if not survivor.alive:
            raise RuntimeError(f"survivor {survivor.name} is not alive")
        if not joiner.alive:
            raise RuntimeError(f"joiner {joiner.name} is not alive")

        # The old detectors are dead weight either way (their peer died,
        # or they already fired); drop their heartbeat handlers too.
        self.primary_detector.detach()
        self.secondary_detector.detach()

        if rejoin:
            # Address swap: the survivor keeps only the service address it
            # took over; the reborn old primary (which still owns the
            # service address from before its crash) takes the survivor's
            # native address instead.  A fresh joiner keeps its own.
            service = self.primary_ip
            if joiner.ip.owns(service):
                standby = survivor.ip.primary_address()
                joiner.eth_interface.add_address(standby)
                joiner.eth_interface.remove_address(service)
                if survivor.ip.owns(standby) and standby != service:
                    survivor.eth_interface.remove_address(standby)

        # One trace spans the whole re-admission: quiesce/copy through the
        # install event that rearms the pair (finished in _rearm).
        reintegrate_ctx = survivor.spans.trace_root(
            "failover.reintegrate", survivor.sim.now, survivor.name,
            survivor=survivor.name, joiner=joiner.name,
        )
        self._reintegrate_ctx = reintegrate_ctx

        result = perform_reintegration(
            survivor,
            joiner,
            self.secondary_config if rejoin else self.primary_config,
            service_ip=self.primary_ip,
            primary_bridge=None if rejoin else self.primary_bridge,
            resume_app=self._resume_app,
            warm_sync=self._warm_sync,
            on_armed=lambda *armed: self._rearm(survivor, joiner, *armed),
            ack_merging=self.ack_merging,
            window_merging=self.window_merging,
        )
        self.reintegrations.append(result)
        if rejoin and isinstance(survivor.bridge, PrimaryBridge):
            # The quiesce installed a fresh merging bridge on the survivor.
            # It is the pair's primary bridge from here on — also if the
            # rejoin aborts before the rearm and leaves it in direct mode.
            self.primary_bridge = survivor.bridge
            self._notify_reintegrated()
        return result

    def _rearm(
        self, survivor: Host, joiner: Host, result: ReintegrationResult,
        primary_bridge: PrimaryBridge, secondary_bridge: SecondaryBridge,
    ) -> None:
        """Runs inside the install event: swap roles, re-create detectors."""
        ctx = self._reintegrate_ctx
        if ctx is not None:
            survivor.spans.finish(
                ctx, survivor.sim.now,
                resumed=result.resumed, bypassed=result.bypassed,
            )
            self._reintegrate_ctx = None
        self.primary = survivor
        self.secondary = joiner
        self.secondary_ip = joiner.ip.primary_address()
        self.primary_bridge = primary_bridge
        self.secondary_bridge = secondary_bridge
        self.failed_over = False
        self.secondary_removed = False
        self.takeover = None
        self._arm_detectors()
        if self._detectors_started:
            self.primary_detector.start()
            self.secondary_detector.start()
        # The joiner's application processes died with its crash: restart
        # the replicated app so *new* connections replicate on both sides
        # again (resumed ones are handled by the per-connection resume app).
        if self._app_factory is not None:
            joiner.spawn(self._app_factory(joiner), f"app@{joiner.name}")
        self._notify_reintegrated()

    def _notify_reintegrated(self) -> None:
        for callback in list(self.on_reintegrated):
            callback(self)
