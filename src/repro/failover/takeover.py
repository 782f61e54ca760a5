"""IP takeover: the §5 primary-failure procedure on the secondary.

Steps, as enumerated in the paper:

1. stop sending client-bound TCP segments (bridge holds them);
2. disable promiscuous receive mode;
3. disable the ``a_p → a_s`` inbound translation;
4. disable the ``a_c → a_p`` outbound translation;
5. take over the primary's IP address (gratuitous ARP).

Steps 1–4 are :meth:`SecondaryBridge.prepare_failover` plus deactivation;
step 5 acquires ``a_p`` on the interface and broadcasts a gratuitous ARP.
Every other node applies the new mapping after its own configured delay —
the router's delay is the paper's interval ``T``, during which client
segments are black-holed and recovered by ordinary TCP retransmission.

The procedure is an explicit state machine (:class:`TakeoverProcedure`):
``IDLE → SILENCED → ANNOUNCED → RESUMING → COMPLETE``, where the
``RESUMING`` hop exists only when a non-zero ``resume_delay`` models the
local reconfiguration window between the gratuitous ARP and the bridge
resuming transmission.  A takeover caught mid-flight by step-down
fencing (this host observed a conflicting gratuitous ARP and yielded
the address) moves to ``FENCED`` instead and never resumes — a fenced
loser arguing with the winner is exactly the dual-primary split the §5
procedure exists to prevent.  The transition graph is declared in
:mod:`repro.analysis.specs.takeover` and model-checked against this
file by ``repro lint --semantic``.

The simulated stack keys TCBs by local address, so the takeover also
re-homes the failover TCBs from ``a_s`` to ``a_p`` (the kernel
implementation expresses the same thing through its translation layer;
see DESIGN.md).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional

from repro.net.addresses import Ipv4Address
from repro.failover.options import FailoverConfig
from repro.failover.secondary import SecondaryBridge

if TYPE_CHECKING:
    from repro.net.host import Host


class TakeoverState(enum.Enum):
    """Lifecycle of one §5 takeover run."""

    IDLE = "IDLE"
    SILENCED = "SILENCED"  # steps 1-4 done: bridge holds, snoop off
    ANNOUNCED = "ANNOUNCED"  # step 5 done: a_p acquired, gratuitous ARP out
    RESUMING = "RESUMING"  # waiting out the local reconfiguration delay
    COMPLETE = "COMPLETE"  # bridge transmitting as the new primary
    FENCED = "FENCED"  # lost an address conflict mid-takeover; never resumes


#: States a step-down fence can interrupt; the terminal states and the
#: not-yet-started state are excluded (fencing them is a no-op).
FENCEABLE_STATES = (
    TakeoverState.SILENCED,
    TakeoverState.ANNOUNCED,
    TakeoverState.RESUMING,
)


class TakeoverProcedure:
    """One run of the §5 takeover on a secondary's bridge.

    :func:`perform_ip_takeover` constructs and immediately runs one;
    callers that need the fencing interlock (e.g.
    :class:`~repro.failover.replicated.ReplicatedServerPair`) keep the
    returned procedure and call :meth:`fence` when the host steps down.
    """

    def __init__(
        self,
        bridge: SecondaryBridge,
        primary_ip: Ipv4Address,
        resume_delay: float = 0.0,
        arp_guard_duration: float = 0.5,
    ):
        self.bridge = bridge
        self.primary_ip = primary_ip
        self.resume_delay = resume_delay
        self.arp_guard_duration = arp_guard_duration
        self.host: "Host" = bridge.host
        self.state = TakeoverState.IDLE
        self._span_ctx: Optional[object] = None

    def run(self) -> None:
        """Execute steps 1–5; schedules the resume when delay models one."""
        if self.state is not TakeoverState.IDLE:
            raise ValueError(f"takeover already started (state {self.state.value})")
        host = self.host
        config: FailoverConfig = self.bridge.config
        old_ip = host.ip.primary_address()

        # Takeover is a trace of its own: its spans attribute the §5
        # phases (silence → announce → resume) even when no sampled flow
        # crosses it.
        self._span_ctx = host.spans.trace_root(
            "failover.takeover", host.sim.now, host.name, ip=str(self.primary_ip)
        )

        # Steps 1-4: silence the bridge and stop snooping/translating.
        self.bridge.prepare_failover()
        self.state = TakeoverState.SILENCED

        # Step 5: acquire a_p and announce it.
        interface = host.eth_interface
        interface.add_address(self.primary_ip)
        if self.arp_guard_duration > 0:
            interface.arp.guard_ip(self.primary_ip, self.arp_guard_duration)
        rebind_failover_connections(host, config, old_ip, self.primary_ip)
        interface.arp.announce(self.primary_ip)
        self.state = TakeoverState.ANNOUNCED
        host.tracer.emit(
            host.sim.now, "takeover.announced", host.name, ip=self.primary_ip.__str__
        )
        host.spans.event(
            self._span_ctx, "failover.announced", host.sim.now, host.name,
            ip=str(self.primary_ip),
        )

        if self.resume_delay > 0:
            self.state = TakeoverState.RESUMING
            host.sim.schedule(self.resume_delay, self._resume)
        else:
            self._resume()

    def _resume(self) -> None:
        """Bridge resumes transmission as the new primary (paper: "after
        the change of IP address is completed")."""
        if self.state not in (TakeoverState.ANNOUNCED, TakeoverState.RESUMING):
            return  # fenced while the resume was in flight
        self.bridge.complete_failover(self.primary_ip)
        self.state = TakeoverState.COMPLETE
        self.host.tracer.emit(self.host.sim.now, "takeover.complete", self.host.name)
        if self._span_ctx is not None:
            self.host.spans.finish(self._span_ctx, self.host.sim.now)

    def fence(self) -> None:
        """Step-down: this host lost the address mid-takeover.

        Safe to call in any state; only an in-flight run reacts.  A
        fenced procedure never resumes transmission — the scheduled
        :meth:`_resume` finds the state changed and does nothing.
        """
        if self.state not in FENCEABLE_STATES:
            return
        self.state = TakeoverState.FENCED
        self.host.tracer.emit(
            self.host.sim.now, "takeover.fenced", self.host.name,
            ip=self.primary_ip.__str__,
        )
        if self._span_ctx is not None:
            self.host.spans.finish(self._span_ctx, self.host.sim.now)


def perform_ip_takeover(
    bridge: SecondaryBridge,
    primary_ip: Ipv4Address,
    resume_delay: float = 0.0,
    arp_guard_duration: float = 0.5,
) -> TakeoverProcedure:
    """Run the §5 procedure on the secondary ``bridge``'s host.

    ``resume_delay`` models the local reconfiguration time between the
    gratuitous ARP and the bridge resuming transmission ("after the change
    of IP address is completed, the bridge resumes sending TCP segments").

    ``arp_guard_duration`` protects the freshly-acquired address from
    spoofed gratuitous ARP during the rebind: a forged claim inside the
    window is ignored (and answered with a corrective re-announce) rather
    than fencing the taker off the VIP it just acquired.

    Returns the running :class:`TakeoverProcedure` so callers can observe
    its state or :meth:`~TakeoverProcedure.fence` it on step-down.
    """
    procedure = TakeoverProcedure(
        bridge,
        primary_ip,
        resume_delay=resume_delay,
        arp_guard_duration=arp_guard_duration,
    )
    procedure.run()
    return procedure


def rebind_failover_connections(
    host: "Host", config: FailoverConfig, old_ip: Ipv4Address, new_ip: Ipv4Address
) -> None:
    """Re-home failover TCBs (and only those) onto a taken-over address.

    Public API: takeover (§5), chain head promotion and replica
    reintegration all re-key the TCBs that ``config`` covers from
    ``old_ip`` to ``new_ip`` without disturbing unreplicated connections.
    The kernel implementation expresses the same thing through its
    address-translation layer; re-keying is the simulated equivalent
    (see DESIGN.md).
    """
    moving = [
        conn
        for key, conn in list(host.tcp.connections.items())
        if key[0] == old_ip and config.covers(conn.local_port, conn.failover)
    ]
    for conn in moving:
        del host.tcp.connections[conn.key]
        conn.rebind_local_ip(new_ip)
        host.tcp.connections[conn.key] = conn
    # TIME_WAIT-retired failover TCBs live on only as linger records;
    # their stragglers follow the taken-over address too.
    host.tcp.rebind_lingering(old_ip, new_ip, config.covers)


# Backwards-compatible alias for the pre-public name.
_rebind_failover_connections = rebind_failover_connections
