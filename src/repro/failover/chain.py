"""Daisy-chained N-way replication (§1: "higher degrees of replication
can be achieved by daisy-chaining multiple backup servers" — mentioned by
the paper, not described; this module works out the construction).

Topology for a chain of K replicas ``head, m1, m2, ..., tail``::

    client ⇆ head ⇆ m1 ⇆ ... ⇆ tail        (all on one snoopable segment)

* every non-head replica snoops the client's datagrams in promiscuous
  mode and feeds them to its own TCP stack (as the paper's secondary);
* the **tail** diverts its TCP output to its upstream neighbour;
* every **intermediate** runs a merging bridge exactly like the paper's
  primary — but instead of emitting the merged segments to the client it
  diverts them to *its* upstream neighbour;
* the **head** runs the paper's primary bridge unchanged.

Why this composes: the intermediate's Δseq maps its own numbering onto
its *downstream's* numbering, so what it forwards upstream is already in
tail-space; the head's Δseq then maps head-space onto tail-space too.
The client is synchronised to the **tail's** sequence numbers, and the
forwarded ACK/window are ``min`` over the whole chain (min cascades).

Failures:

* head dies → its neighbour performs the §5 takeover and becomes head
  (it stops diverting; its own merging bridge keeps protecting the rest
  of the chain);
* an intermediate dies → its neighbours splice around it: the downstream
  replica re-aims its diversion at the upstream one.  No sequence
  adjustment is needed anywhere, because everything the dead node ever
  forwarded was already in tail-space;
* tail dies → its upstream neighbour runs the §6 procedure (flush +
  direct mode) and the chain shortens by one.
"""

from __future__ import annotations

import dataclasses
from functools import partial
from typing import Callable, Dict, Generator, Iterable, List, Optional

from repro.failover.bridge import divert_out, translate_in
from repro.failover.delta import SeqOffset
from repro.failover.detector import FaultDetector
from repro.failover.options import FailoverConfig
from repro.failover.primary import PrimaryBridge
from repro.failover.reintegration import (
    INSTALL_DELAY,
    ResumeApp,
    export_resumable_connections,
    spawn_resume_apps,
)
from repro.failover.takeover import rebind_failover_connections
from repro.net.addresses import Ipv4Address
from repro.net.host import Host
from repro.net.packet import IPPROTO_TCP, Ipv4Datagram
from repro.tcp.segment import TcpSegment


class ChainBridge(PrimaryBridge):
    """A merging bridge whose client-bound emissions are diverted upstream.

    Used by every chain position except the head.  It combines the roles
    of the paper's two bridges: *secondary-style* snooping/translation on
    the receive side, *primary-style* queue matching on the send side —
    with the merged result diverted to ``upstream_ip`` instead of sent to
    the peer.
    """

    def __init__(
        self,
        host: Host,
        config: FailoverConfig,
        downstream_ip: Optional[Ipv4Address],
        upstream_ip: Ipv4Address,
        service_ip: Ipv4Address,
    ):
        # ``secondary_ip`` in the parent is "where my merge partner's
        # segments come from"; for a chain node that is its downstream.
        super().__init__(
            host,
            config,
            downstream_ip if downstream_ip is not None else upstream_ip,
        )
        self.upstream_ip = upstream_ip
        self.service_ip = service_ip  # the client-visible address (a_p)
        self.is_head = False
        self.is_tail = downstream_ip is None
        if self.is_tail:
            # A tail has no merge partner: behave as §6 direct mode from
            # the start, i.e. pure divert like the paper's secondary.
            self.secondary_down = True

    def install(self) -> None:
        super().install()
        if not self.is_head:
            self.host.nic.set_promiscuous(True)

    # -- receive side -------------------------------------------------------

    def datagram_from_ip(self, datagram: Ipv4Datagram) -> Optional[Ipv4Datagram]:
        if self.is_head:
            return super().datagram_from_ip(datagram)
        if datagram.protocol != IPPROTO_TCP:
            # Own heartbeats etc. pass; snooped non-TCP is dropped.
            return datagram if self.host.ip.owns(datagram.dst) else None
        segment = datagram.payload
        if segment.orig_dst_option is not None and self.host.ip.owns(datagram.dst):
            # Diverted segments from our downstream: merge them.
            return super().datagram_from_ip(datagram)
        if datagram.dst == self.service_ip:
            # Snooped client traffic: the head-style bookkeeping first (ACK
            # rewritten into our own numbering, FIN tracking), then the
            # §3.1 translation a_p -> a_self.
            if not self._covers(segment.dst_port, False):
                return None
            rewritten = self._from_peer_datagram(datagram, segment)
            if rewritten is None:
                return None
            return translate_in(rewritten, self.host.ip.primary_address())
        if self.host.ip.owns(datagram.dst):
            return datagram
        return None  # snooped traffic that is not for the service

    # -- send side ------------------------------------------------------------

    def _send_datagram(
        self, segment: TcpSegment, src_ip: Ipv4Address, dst_ip: Ipv4Address
    ) -> None:
        # The head emits like the paper's primary, and §8 synthesised ACKs
        # toward the downstream are delivered directly.  Anything else is
        # a merged client-bound segment: divert it upstream with ORIG_DST,
        # exactly as the paper's secondary diverts its TCP output.
        if not (
            self.is_head
            or dst_ip == self.secondary_ip
            or self.host.ip.owns(dst_ip)
        ):
            segment = divert_out(segment, src_ip, dst_ip, self.upstream_ip)
            dst_ip = self.upstream_ip
        super()._send_datagram(segment, src_ip, dst_ip)

    # -- role changes -----------------------------------------------------------

    def become_head(self) -> None:
        """§5 takeover: stop snooping/diverting; emit directly."""
        self.is_head = True
        self.host.nic.set_promiscuous(False)

    def retarget_upstream(self, new_upstream: Ipv4Address) -> None:
        """Splice around a dead upstream neighbour."""
        self.upstream_ip = new_upstream

    def adopt_downstream(self, new_downstream: Optional[Ipv4Address]) -> None:
        """Splice around a dead downstream neighbour (or become tail)."""
        if new_downstream is None:
            self.secondary_failed()
        else:
            self.secondary_ip = new_downstream


class ReplicatedChain:
    """A daisy chain of K actively replicated servers.

    ``hosts[0]`` is the head (owns the client-visible service address),
    ``hosts[-1]`` the tail.  Use exactly like
    :class:`~repro.failover.replicated.ReplicatedServerPair` — run the
    same deterministic app factory on every member, crash members at
    will; surviving members keep the client's connections alive as long
    as at least one replica remains.
    """

    def __init__(
        self,
        hosts: List[Host],
        failover_ports: Iterable[int] = (),
        detector_interval: float = 0.010,
        detector_timeout: float = 0.050,
    ):
        if len(hosts) < 2:
            raise ValueError("a chain needs at least two replicas")
        self.hosts = list(hosts)
        self.sim = hosts[0].sim
        self.service_ip = hosts[0].ip.primary_address()
        self.config = FailoverConfig(failover_ports)
        self.alive = {host.name: True for host in hosts}
        self.bridges: Dict[str, ChainBridge] = {}
        self.detectors: List[FaultDetector] = []
        self._apps: List[object] = []
        self._app_factory: Optional[Callable[[Host], Generator]] = None
        self._detectors_started = False
        self.detector_interval = detector_interval
        self.detector_timeout = detector_timeout

        for index, host in enumerate(self.hosts):
            upstream = self.hosts[index - 1] if index > 0 else None
            downstream = self.hosts[index + 1] if index < len(self.hosts) - 1 else None
            # The head's "upstream" is the client itself: it emits directly.
            up_ip = upstream.ip.primary_address() if upstream else self.service_ip
            bridge = ChainBridge(
                host,
                self.config.copy(),
                downstream_ip=downstream.ip.primary_address() if downstream else None,
                upstream_ip=up_ip,
                service_ip=self.service_ip,
            )
            bridge.is_head = upstream is None
            bridge.install()
            self.bridges[host.name] = bridge

        # Full-mesh failure detection keeps the splice logic simple: every
        # member watches every other and reacts only to its own neighbours.
        for host in self.hosts:
            for peer in self.hosts:
                if peer is not host:
                    self.detectors.append(self._watch(host, peer))

    def _watch(self, observer: Host, peer: Host) -> FaultDetector:
        return FaultDetector(
            observer,
            peer.ip.primary_address(),
            on_failure=partial(self._on_failure, observer, peer),
            interval=self.detector_interval,
            timeout=self.detector_timeout,
        )

    # ------------------------------------------------------------------

    def start_detectors(self) -> None:
        self._detectors_started = True
        for detector in self.detectors:
            detector.start()

    def run_app(self, factory: Callable[[Host], Generator], name: str = "app") -> None:
        self._app_factory = factory
        for host in self.hosts:
            self._apps.append(host.spawn(factory(host), f"{name}@{host.name}"))

    def crash(self, host: Host) -> None:
        host.crash()

    # ------------------------------------------------------------------
    # failure handling: each survivor splices its own links
    # ------------------------------------------------------------------

    def _living_chain(self) -> List[Host]:
        return [h for h in self.hosts if self.alive.get(h.name, False)]

    def _on_failure(self, observer: Host, failed: Host) -> None:
        self.alive[failed.name] = False
        if not observer.alive:
            return
        chain = self._living_chain()
        if observer not in chain or not chain:
            return
        position = chain.index(observer)
        bridge: ChainBridge = self.bridges[observer.name]
        # Recompute this observer's neighbours in the spliced chain.
        new_upstream = chain[position - 1] if position > 0 else None
        new_downstream = chain[position + 1] if position < len(chain) - 1 else None
        if new_upstream is None and not bridge.is_head:
            self._promote_to_head(observer, bridge)
        elif new_upstream is not None and not bridge.is_head:
            bridge.retarget_upstream(new_upstream.ip.primary_address())
        if failed.ip.primary_address() == bridge.secondary_ip:
            # Our downstream merge partner died: splice to the next one,
            # or run the §6 procedure if none is left.
            bridge.adopt_downstream(
                new_downstream.ip.primary_address() if new_downstream else None
            )

    # ------------------------------------------------------------------
    # splice-in: restore the chain to K replicas after losses
    # ------------------------------------------------------------------

    def splice_in(
        self,
        host: Host,
        resume_app: Optional[ResumeApp] = None,
    ) -> ChainBridge:
        """Append ``host`` as the new tail, resuming established connections.

        The old tail (which has run tail-style direct mode, i.e. its own
        numbering *is* the client's) flips to a merging intermediate; the
        joiner becomes the new tail.  Because the tail's numbering is
        client-space, every resumed Δseq is the identity and nothing
        upstream needs adjusting — the same property that makes
        intermediate splice-*out* free makes splice-*in* at the tail free.

        ``resume_app`` (see :mod:`~repro.failover.reintegration`) warm-
        starts the replicated application on the joiner per connection.
        Returns the new tail's bridge.
        """
        chain = self._living_chain()
        if not chain:
            raise RuntimeError("no living replica to splice onto")
        if not host.alive:
            raise RuntimeError(f"joiner {host.name} is not alive")
        old_tail = chain[-1]
        old_bridge: ChainBridge = self.bridges[old_tail.name]
        new_ip = host.ip.primary_address()
        tracer = old_tail.tracer
        sim = self.sim
        tracer.emit(sim.now, "reintegration.start", old_tail.name,
                    joiner=host.name, case="splice")

        # Quiesce + snapshot atomically: from this event on, the old
        # tail's fresh output parks in its P queue until matched.
        snapshots, resumes, bypass = export_resumable_connections(
            old_tail, old_bridge.config, old_bridge
        )
        old_bridge.bypass_keys.update(bypass)
        old_bridge.is_tail = False
        old_bridge.resume_merge(new_ip, resumes)
        tracer.emit(sim.now, "reintegration.snapshot", old_tail.name,
                    conns=len(snapshots), bypassed=len(bypass))

        new_bridge = ChainBridge(
            host,
            self.config.copy(),
            downstream_ip=None,
            upstream_ip=old_tail.ip.primary_address(),
            service_ip=self.service_ip,
        )

        def do_install() -> None:
            if not host.alive or not old_tail.alive:
                tracer.emit(sim.now, "reintegration.aborted", old_tail.name,
                            joiner=host.name)
                return
            conns = [
                host.tcp.install_connection(snap, local_ip=new_ip)
                for snap in snapshots
            ]
            new_bridge.install()
            # The new tail's own bridge state: identity Δseq (its TCBs
            # were installed in client numbering, whatever Δseq the old
            # tail carried), direct mode from the start.
            tail_resumes = [
                dataclasses.replace(
                    resume, local_ip=new_ip, delta=SeqOffset.identity()
                )
                for resume in resumes
            ]
            new_bridge.resume_merge(new_ip, tail_resumes, direct=True)
            host.eth_interface.arp.announce(new_ip)
            tracer.emit(sim.now, "reintegration.installed", host.name,
                        conns=len(conns), survivor=old_tail.name)
            if resume_app is not None:
                spawn_resume_apps(host, conns, snapshots, resume_app)
            # Extend the full detector mesh to cover the joiner.
            fresh: List[FaultDetector] = []
            for peer in self._living_chain():
                if peer is not host:
                    fresh += [self._watch(host, peer), self._watch(peer, host)]
            self.detectors.extend(fresh)
            if self._detectors_started:
                for detector in fresh:
                    detector.start()
            # Restart the replicated app so new connections replicate on
            # the joiner too (its processes died with the crash).
            if self._app_factory is not None:
                self._apps.append(
                    host.spawn(self._app_factory(host), f"app@{host.name}")
                )
            tracer.emit(sim.now, "reintegration.armed", old_tail.name,
                        joiner=host.name)

        # A restarted member rejoins at the *tail* position regardless of
        # where it originally sat in the chain.
        if host in self.hosts:
            self.hosts.remove(host)
        self.hosts.append(host)
        self.alive[host.name] = True
        self.bridges[host.name] = new_bridge
        sim.schedule(INSTALL_DELAY, do_install)
        return new_bridge

    def _promote_to_head(self, host: Host, bridge: ChainBridge) -> None:
        """§5 takeover, chain edition."""
        old_ip = host.ip.primary_address()
        bridge.become_head()
        interface = host.eth_interface
        interface.add_address(self.service_ip)
        rebind_failover_connections(host, bridge.config, old_ip, self.service_ip)
        # Bridge-connection state is keyed by peer; the local identity the
        # emissions use must follow the takeover.
        for bc in bridge.connections.values():
            bc.local_ip = self.service_ip
        interface.arp.announce(self.service_ip)
        host.tracer.emit(host.sim.now, "chain.promoted", host.name,
                         ip=self.service_ip.__str__)
