#!/usr/bin/env python3
"""Daisy-chained 3-way replication surviving two sequential failures.

The paper sketches >2-way replication by "daisy-chaining multiple backup
servers" (§1) without describing it; `repro.failover.chain` works the
construction out (see that module's docstring).  Here an on-line store
session continues across the head crashing, then the *promoted* head
crashing too — the client talks to three different physical servers over
one TCP connection and never notices.

Run:  python examples/chain_replication.py
"""

from repro.apps.store import shopping_session, store_server
from repro.failover.chain import ReplicatedChain
from repro.harness.topology import CLIENT_IP, CLIENT_PROFILE, SERVER_PROFILE, Lan
from repro.net.addresses import Ipv4Address
from repro.sim.process import spawn

PORT = 8080

SCRIPT = [
    "BROWSE anvil",
    "BUY anvil 1",        # served by the full chain
    "BROWSE rocket-skates",
    "BUY rocket-skates 1",  # served after the head died
    "BROWSE tnt-crate",
    "BUY tnt-crate 1",    # served by the last replica standing
    "QUIT",
]


def main() -> None:
    lan = Lan(seed=21, collision_prob=0.05, record_traces=True)
    sim = lan.sim
    client = lan.add_host("client", 1, CLIENT_IP, CLIENT_PROFILE,
                          gratuitous_apply_delay=300e-6)
    replicas = [
        lan.add_host(f"replica{i}", 10 + i, Ipv4Address(f"10.0.0.{10 + i}"),
                     SERVER_PROFILE)
        for i in range(3)
    ]
    lan.warm_arp()

    chain = ReplicatedChain(replicas, failover_ports=[PORT],
                            detector_interval=0.005, detector_timeout=0.020)
    chain.start_detectors()
    chain.run_app(lambda host: store_server(host, PORT), "store")

    results = {}

    def shopper():
        yield 0.01
        yield from shopping_session(client, chain.service_ip, PORT, SCRIPT, results)

    spawn(sim, shopper(), "shopper")
    sim.schedule(0.015, chain.crash, replicas[0])  # head dies mid-session
    sim.schedule(0.300, chain.crash, replicas[1])  # promoted head dies too
    sim.run(until=30.0)

    print("session transcript (two failovers happened inside it):")
    for command, reply in zip(SCRIPT, results["replies"]):
        print(f"  > {command:22s} < {reply}")
    survivors = [r.name for r in replicas if r.alive]
    print()
    print(f"survivors:         {survivors}")
    print(f"service ip owner:  {replicas[2].name} owns "
          f"{[str(ip) for ip in replicas[2].ip.owned_ips()]}")
    assert results["replies"][-1] == "BYE"
    assert replicas[2].ip.owns(chain.service_ip)
    print("one TCP connection, three servers, zero client-visible hiccups — success")


if __name__ == "__main__":
    main()
