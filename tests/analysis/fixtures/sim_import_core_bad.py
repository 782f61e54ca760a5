# A "pure" core that quietly learns about the simulator, the host and the
# observers (pretend src/repro/failover/core.py).

import repro.sim.engine
from repro import obs
from repro.harness.invariants import InvariantChecker
from repro.net.host import Host
from repro.net.ip import IpLayer
from repro.obs.metrics import MetricsRegistry
from repro.sim.trace import Tracer


def step(host: Host, tracer: Tracer):
    tracer.emit(host.sim.now, "bridge.p.emit_data", host.name)


# Read every import, so no finding here is about an unused one.
KNOWN = (repro.sim.engine, obs, InvariantChecker, IpLayer, MetricsRegistry)
