"""IP router.

A thin specialisation of :class:`repro.net.host.Host` with forwarding
enabled and (typically) two interfaces — the server LAN and a WAN uplink.
Routers matter to the reproduction because §5's takeover analysis is about
the *router's* ARP-table update latency ``T``: set ``gratuitous_apply_delay``
to model how long the router takes to honour the secondary's gratuitous ARP.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.net.addresses import MacAddress
from repro.net.host import Host, HostProfile
from repro.obs.spans import SpanTracer
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer

#: Per-datagram forwarding cost, charged on the router's CPU.
FORWARDING_COST = 15e-6
ROUTER_PROFILE = HostProfile(
    rx_segment_cost=FORWARDING_COST, tx_segment_cost=FORWARDING_COST
)


class Router(Host):
    """Host with IP forwarding and router-grade processing costs."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        mac: MacAddress,
        tracer: Optional[Tracer] = None,
        # Inject a named stream from the testbed's RngRegistry (see
        # repro.harness.topology); the Host base derives a stable
        # name-keyed default via repro.sim.rng otherwise.
        rng: Optional[random.Random] = None,
        gratuitous_apply_delay: float = 0.0,
        spans: Optional[SpanTracer] = None,
    ):
        super().__init__(
            sim,
            name,
            mac,
            tracer=tracer,
            rng=rng,
            profile=ROUTER_PROFILE,
            forwarding=True,
            gratuitous_apply_delay=gratuitous_apply_delay,
            spans=spans,
        )
        self.ip.set_forward_defer(lambda cont: self.cpu.run(FORWARDING_COST, cont))
