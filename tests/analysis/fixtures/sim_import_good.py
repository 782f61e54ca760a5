# The deterministic alternative: everything through the engine, and
# testbeds from the shipped builder rather than the test tree.

from repro.harness.topology import ChaosLan


def serve(sim, host, deliver):
    sim.call_later(1.0, deliver)
    return host.spawn(_run(host), name="server")


def _run(host):
    yield 1.0
