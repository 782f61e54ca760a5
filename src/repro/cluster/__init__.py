"""Cluster plane: many replicated pairs behind one virtual service IP.

Scales the paper's single primary/secondary pair out to a sharded fleet:
a dispatcher owns the advertised address and rendezvous-hashes client
flows across N independent :class:`~repro.failover.replicated.ReplicatedServerPair`
shards, each of which fails over (and reintegrates) with the paper's
own machinery — so a storm of primary failures is N independent,
shard-local instances of §5, invisible at the advertised IP.
"""

from repro.cluster.capacity import (
    CapacityResult,
    capacity_bench_rows,
    run_capacity,
)
from repro.cluster.dispatcher import VirtualService
from repro.cluster.fleet import (
    CLUSTER_SERVICE_PORT,
    DISPATCHER_FRONT_IP,
    VIRTUAL_IP,
    Shard,
    ShardedFleet,
)
from repro.cluster.hashing import choose_shard, flow_key, rendezvous_score

__all__ = [
    "CLUSTER_SERVICE_PORT",
    "CapacityResult",
    "DISPATCHER_FRONT_IP",
    "Shard",
    "ShardedFleet",
    "VIRTUAL_IP",
    "VirtualService",
    "capacity_bench_rows",
    "choose_shard",
    "flow_key",
    "rendezvous_score",
    "run_capacity",
]
