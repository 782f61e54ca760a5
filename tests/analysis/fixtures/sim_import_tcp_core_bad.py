# A "pure" TCB that quietly learns about the simulator, its timers, the
# host and the observers (pretend src/repro/tcp/core.py).

from repro.net.host import Host
from repro.obs.metrics import NULL_METRICS
from repro.sim.engine import Simulator, Timer
from repro.sim.process import Event
from repro.sim.trace import Tracer


def start_rtx(sim: Simulator, tracer: Tracer, host: Host):
    tracer.emit(sim.now, "tcp.rtx", host.name)
    return sim.schedule(1.0, Event(sim).succeed), NULL_METRICS, Timer
