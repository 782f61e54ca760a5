"""What an established, idle connection costs each host, in bytes.

``N`` connections are opened from the client and left idle: established
on every host, nothing in flight, no application waiting on them.  A
host's bytes per connection are what ``tracemalloc`` sees freed, after
``gc.collect()``, when that host forgets them — its connection table, its
listener and accept queue, and on the primary the bridge's per-connection
state — divided by ``N``.  The per-host shares add up to what opening the
connections cost, so nothing is counted twice or missed.
"""

import gc
import tracemalloc

from repro.tcp.core import TcpState
from tests.util import SERVER_IP, ReplicatedLan, TwoHostLan

N = 100
PORT = 80

#: Upper bounds, bytes per idle established connection per host (CPython
#: 3.11, 64-bit): ~1.2-1.3 KB a TCB, ~2.5 KB on the primary (TCB plus
#: bridge state).  Before the blocks were slotted: ~3.8 KB and ~5.6 KB.
BOUNDS = {
    "client": 1300,
    "server": 1350,
    "primary": 2600,
    "secondary": 1350,
}


def _bytes_per_connection(lan, hosts, bridge=None):
    """``{host name: bytes per connection}`` for ``N`` idle connections
    from ``hosts[0]`` to the others, plus ``"total"``."""
    for host in hosts[1:]:
        host.tcp.listen(PORT, backlog=N)
    tracemalloc.start()
    try:
        gc.collect()
        baseline = tracemalloc.get_traced_memory()[0]
        for _ in range(N):
            lan.client.tcp.connect(SERVER_IP, PORT)
        lan.run(until=lan.sim.now + 5.0)  # past every stopped SYN timer
        for host in hosts:
            states = [conn.state for conn in host.tcp.connections.values()]
            assert states == [TcpState.ESTABLISHED] * N, host.name
        gc.collect()
        shares = {"total": (tracemalloc.get_traced_memory()[0] - baseline) / N}
        for host in hosts:
            before = tracemalloc.get_traced_memory()[0]
            host.tcp.connections.clear()
            host.tcp.listeners.clear()
            if bridge is not None and bridge.host is host:
                bridge.connections.clear()
            gc.collect()
            shares[host.name] = (before - tracemalloc.get_traced_memory()[0]) / N
    finally:
        tracemalloc.stop()
    return shares


def _check(shares):
    hosts = [name for name in shares if name != "total"]
    # Every byte opening the connections cost is some host's, give or take
    # a counter or two.
    assert abs(shares["total"] - sum(shares[name] for name in hosts)) < 100, shares
    for name in hosts:
        assert shares[name] < BOUNDS[name], (name, shares)


def test_an_idle_connection_fits_the_budget_on_each_of_two_hosts():
    lan = TwoHostLan(record_traces=False)
    _check(_bytes_per_connection(lan, [lan.client, lan.server]))


def test_an_idle_replicated_connection_fits_the_budget_on_each_host():
    lan = ReplicatedLan(failover_ports=(PORT,), record_traces=False)
    shares = _bytes_per_connection(
        lan, [lan.client, lan.primary, lan.secondary], lan.pair.primary_bridge
    )
    _check(shares)
