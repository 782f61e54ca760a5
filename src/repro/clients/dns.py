"""Deterministic DNS model: zone, resolver caches, health-checked failover.

Modeled on the recovery path production actually uses — and on how it
goes wrong.  A Route 53-style failover record flips an A record from the
primary to the standby when health checks fail; every client then
*should* converge within one TTL.  The GitHub MySQL incident
(SNIPPETS.md) shows the two ways that promise breaks: resolver caches
that ignore TTLs, and connection pools that never re-resolve.  Both
misbehaviors are first-class here:

* :class:`AuthoritativeZone` — name → (address, TTL) records with a
  monotonically increasing serial per change;
* :class:`ResolverCache` — a per-client stub resolver cache.  In
  ``respect_ttl`` mode an entry expires ``ttl`` seconds after it was
  fetched (measured on the simulation clock); in the TTL-ignoring mode
  an entry, once cached, is served forever — the documented misbehavior
  of several stub resolvers and JVM defaults;
* :class:`HealthCheckedRecord` — the Route 53 failover analog: a
  monitor host health-checks the primary and rewrites the zone record
  to the standby when it goes dark.

Lookups cost ``lookup_delay`` simulated seconds on a cache miss (the
authoritative round trip); cache hits are free.  All state changes are
traced (``clients.dns.*``) so E14 timelines show exactly when the flip
happened and which clients kept dialing the corpse.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from repro.net.addresses import Ipv4Address
from repro.clients.health import HealthMonitor


class DnsError(Exception):
    """Name not present in the zone."""


class AuthoritativeZone:
    """The authoritative store: name → (address, ttl), with a serial."""

    def __init__(self, sim, tracer=None):
        self.sim = sim
        self.tracer = tracer
        self.serial = 0
        self._records: Dict[str, Tuple[Ipv4Address, float]] = {}
        self.changes: List[Tuple[float, str, Ipv4Address]] = []

    def set_record(self, name: str, ip: Ipv4Address, ttl: float) -> None:
        self.serial += 1
        self._records[name] = (ip, ttl)
        self.changes.append((self.sim.now, name, ip))
        if self.tracer is not None:
            self.tracer.emit(
                self.sim.now, "clients.dns.record", "zone",
                name=name, ip=ip.__str__, ttl=ttl, serial=self.serial,
            )

    def lookup(self, name: str) -> Tuple[Ipv4Address, float]:
        try:
            return self._records[name]
        except KeyError:
            raise DnsError(f"NXDOMAIN: {name}") from None


class ResolverCache:
    """A per-client stub resolver cache over one authoritative zone."""

    def __init__(
        self,
        client,
        zone: AuthoritativeZone,
        *,
        respect_ttl: bool = True,
        lookup_delay: float = 0.002,
    ):
        self.client = client
        self.sim = client.sim
        self.tracer = client.tracer
        self.zone = zone
        self.respect_ttl = respect_ttl
        self.lookup_delay = lookup_delay
        self._cache: Dict[str, Tuple[Ipv4Address, float]] = {}
        self.queries = 0
        self.authoritative_queries = 0
        self.stale_hits = 0

    def resolve(self, name: str) -> Generator:
        """Resolve ``name``; yields the lookup delay on a cache miss."""
        self.queries += 1
        entry = self._cache.get(name)
        if entry is not None:
            ip, expires = entry
            if not self.respect_ttl:
                # Misbehaving mode: a cached entry never expires.  Count
                # the hits served past their TTL — the smoking gun E14
                # surfaces in its per-client breakdown.
                if self.sim.now >= expires:
                    self.stale_hits += 1
                    self.tracer.emit(
                        self.sim.now, "clients.dns.stale_hit",
                        self.client.name, name=name, ip=ip.__str__,
                    )
                return ip
            if self.sim.now < expires:
                return ip
            del self._cache[name]
        if self.lookup_delay > 0:
            yield self.lookup_delay
        ip, ttl = self.zone.lookup(name)
        self.authoritative_queries += 1
        self._cache[name] = (ip, self.sim.now + ttl)
        return ip

    def resolver_for(self, name: str):
        """A zero-arg generator-callable for :class:`ConnectionPool`."""

        def resolve() -> Generator:
            ip = yield from self.resolve(name)
            return ip

        return resolve

    def flush(self, name: Optional[str] = None) -> None:
        if name is None:
            self._cache = {}
        else:
            self._cache.pop(name, None)


class HealthCheckedRecord:
    """Route 53-style failover record: flip to standby on health failure."""

    def __init__(
        self,
        zone: AuthoritativeZone,
        name: str,
        primary_ip: Ipv4Address,
        standby_ip: Ipv4Address,
        ttl: float,
        monitor_host,
        primary_host,
        *,
        check_interval: float = 0.010,
        check_timeout: float = 0.050,
    ):
        self.zone = zone
        self.name = name
        self.primary_ip = primary_ip
        self.standby_ip = standby_ip
        self.ttl = ttl
        self.flipped_at: Optional[float] = None
        zone.set_record(name, primary_ip, ttl)
        self.monitor = HealthMonitor(
            monitor_host, primary_host, self._flip,
            interval=check_interval, timeout=check_timeout,
        )

    def start(self) -> None:
        self.monitor.start()

    def _flip(self) -> None:
        if self.flipped_at is not None:
            return
        self.flipped_at = self.zone.sim.now
        self.zone.set_record(self.name, self.standby_ip, self.ttl)
        if self.zone.tracer is not None:
            self.zone.tracer.emit(
                self.zone.sim.now, "clients.dns.flip", "zone",
                name=self.name, to=self.standby_ip.__str__,
            )
