"""Failover-aware connection pool (client tier, DESIGN.md §14).

The paper makes failover transparent *below* the client; production
mostly recovers *above* it, and the connection pool is where that
recovery succeeds or rots.  The GitHub MySQL incident (SNIPPETS.md) is
the canonical failure: pools full of sockets to a dead primary, handed
out again and again because nothing invalidated them.  This pool models
the defensive shape production drivers converged on:

* **bounded size** — at most ``max_size`` live connections; extra
  checkouts wait on an event until a slot or an idle socket frees up;
* **checkout / checkin** — LIFO idle list, so the warmest socket is
  reused first and cold sockets age out via health probes;
* **invalidate-on-error** — any I/O error aborts the socket and removes
  it from the pool; the *next* checkout dials fresh (and re-resolves,
  which is what lets a DNS flip actually take);
* **bounded retry with seeded jittered backoff** — a request survives
  up to ``retry_budget`` failed attempts, sleeping
  ``backoff_base · 2^(attempt-1) · U[0.5, 1.5)`` (capped) between them,
  every draw from an injected :mod:`repro.sim.rng` stream;
* **attempt timeouts** — a dial or in-flight request that outlives
  ``attempt_timeout`` is aborted, so a silently-dead backend costs one
  timeout per attempt, not a full TCP retransmission give-up;
* **health-probe eviction** — an optional periodic prober runs the
  wire protocol over idle sockets and evicts the ones that fail.

Every request is journalled in a :class:`RequestLedger`; the
client-visible-outcome invariant (`InvariantChecker.check_client_outcomes`)
audits that no request is silently lost or delivered twice across a
failover, DNS flip, or proxy re-route.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, Generator, List, Optional

from repro.apps.request_reply import pattern_bytes
from repro.net.addresses import Ipv4Address
from repro.sim.process import Event
from repro.tcp.socket_api import SimSocket

#: Request id -> outcome label used by the ledger.
OUTCOME_ACKED = "acked"
OUTCOME_FAILED = "failed"

#: Probe request size used by the health loop (a real exchange, so a
#: probe exercises the same path a request would).
PROBE_SIZE = 4


class PoolRequestFailed(ConnectionError):
    """A request exhausted its retry budget."""


def constant_resolver(ip: Ipv4Address) -> Callable[[], Generator]:
    """A resolver that always returns ``ip`` (VIP / bridge paths)."""

    def resolve() -> Generator:
        return ip
        yield  # pragma: no cover - makes this a generator function

    return resolve


class RequestLedger:
    """Journal of every request submitted through pools.

    The ledger is the ground truth for the client-visible-outcome
    invariant: each submitted request must end in exactly one of
    ``acked`` (reply delivered to the caller) or ``failed`` (error
    reported to the caller) — never neither (silent loss), never both,
    and never more than one delivery.
    """

    def __init__(self) -> None:
        self.submitted: Dict[int, str] = {}
        self.submit_times: Dict[int, float] = {}
        self.acks: Dict[int, int] = {}
        self.failures: Dict[int, List[str]] = {}
        self._next_id = 0

    def submit(self, label: str, now: float) -> int:
        rid = self._next_id
        self._next_id += 1
        self.submitted[rid] = label
        self.submit_times[rid] = now
        return rid

    def acked(self, rid: int) -> None:
        self.acks[rid] = self.acks.get(rid, 0) + 1

    def failed(self, rid: int, reason: str) -> None:
        self.failures.setdefault(rid, []).append(reason)

    # -- queries (read-only; used by the invariant checker) -------------

    def outcome(self, rid: int) -> Optional[str]:
        if self.acks.get(rid, 0) > 0:
            return OUTCOME_ACKED
        if self.failures.get(rid):
            return OUTCOME_FAILED
        return None

    @property
    def total(self) -> int:
        return len(self.submitted)

    @property
    def acked_count(self) -> int:
        return sum(1 for rid in self.submitted if self.acks.get(rid, 0) > 0)

    @property
    def failed_count(self) -> int:
        return sum(
            1 for rid in self.submitted
            if not self.acks.get(rid, 0) and self.failures.get(rid)
        )


class ConnectionPool:
    """A bounded, failover-aware pool of :class:`SimSocket` connections.

    ``resolve`` is a generator-callable returning the backend address to
    dial; re-running it on every dial is the hook through which DNS
    re-resolution (or a static VIP) enters the pool.
    """

    def __init__(
        self,
        client,
        port: int,
        resolve: Callable[[], Generator],
        rng,
        *,
        max_size: int = 4,
        retry_budget: int = 4,
        backoff_base: float = 0.050,
        backoff_cap: float = 0.400,
        attempt_timeout: float = 0.250,
        health_interval: float = 0.0,
        ledger: Optional[RequestLedger] = None,
        name: str = "pool",
    ):
        if max_size < 1:
            raise ValueError("max_size must be at least 1")
        self.client = client
        self.sim = client.sim
        self.tracer = client.tracer
        self.spans = client.spans
        self.port = port
        self._resolve = resolve
        self.rng = rng
        self.max_size = max_size
        self.retry_budget = retry_budget
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.attempt_timeout = attempt_timeout
        self.health_interval = health_interval
        self.ledger = ledger if ledger is not None else RequestLedger()
        self.name = name
        self._idle: List[SimSocket] = []
        self._size = 0  # checked-out + idle live connections
        self._waiters: List[Event] = []
        # Counters (deterministic; folded into BENCH rows by E14).
        self.dials = 0
        self.reuses = 0
        self.invalidated = 0
        self.evicted = 0
        self.retries = 0
        self.timeouts = 0
        self.exhausted_errors = 0

    # -- sizing ----------------------------------------------------------

    @property
    def size(self) -> int:
        """Live connections the pool accounts for (idle + checked out)."""
        return self._size

    @property
    def idle_count(self) -> int:
        return len(self._idle)

    # -- checkout / checkin ---------------------------------------------

    def checkout(self) -> Generator:
        """Yield until a connection is available; returns a SimSocket."""
        while True:
            while self._idle:
                sock = self._idle.pop()
                if sock.connected:
                    self.reuses += 1
                    return sock
                # A peer reset while the socket sat idle: drop it.
                self._drop(sock, "idle-dead")
            if self._size < self.max_size:
                self._size += 1
                try:
                    sock = yield from self._dial()
                except BaseException:
                    self._size -= 1
                    self._wake()
                    raise
                return sock
            waiter = Event(self.sim, name="pool.wait")
            self._waiters.append(waiter)
            yield waiter

    def checkin(self, sock: SimSocket) -> None:
        """Return a healthy connection to the idle list."""
        if not sock.connected:
            self._drop(sock, "checkin-dead")
            return
        self._idle.append(sock)
        self._wake()

    def invalidate(self, sock: SimSocket) -> None:
        """Evict a broken connection: abort it and free its slot."""
        self.invalidated += 1
        self.tracer.emit(
            self.sim.now, "clients.pool.invalidate", self.client.name,
            pool=self.name,
        )
        sock.abort()
        self._drop(sock, "invalidated")

    def _drop(self, sock: SimSocket, why: str) -> None:
        if sock in self._idle:
            self._idle.remove(sock)
        self._size -= 1
        self._wake()

    def _wake(self) -> None:
        waiters = self._waiters
        self._waiters = []
        for waiter in waiters:
            if not waiter.triggered:
                waiter.succeed()

    # -- dialing ---------------------------------------------------------

    def _dial(self) -> Generator:
        ip = yield from self._resolve()
        try:
            sock = SimSocket.connect(self.client, ip, self.port, failover=True)
        except OSError:
            self.exhausted_errors += 1
            raise
        self.dials += 1
        timer = self.sim.schedule(self.attempt_timeout, self._expire, sock)
        try:
            yield from sock.wait_connected()
        finally:
            timer.cancel()
        return sock

    def _expire(self, sock: SimSocket) -> None:
        """Attempt timeout: abort so the waiter unblocks with an error."""
        self.timeouts += 1
        self.tracer.emit(
            self.sim.now, "clients.pool.timeout", self.client.name,
            pool=self.name,
        )
        sock.abort()

    # -- the request path -------------------------------------------------

    def request(self, size: int, label: str = "") -> Generator:
        """Run one request/reply exchange with bounded retry.

        Returns the reply bytes; raises :class:`PoolRequestFailed` once
        the retry budget is spent.  Every outcome is journalled.
        """
        rid = self.ledger.submit(label or f"{self.name}/{size}", self.sim.now)
        attempts = 0
        last_error: Optional[BaseException] = None
        while True:
            attempts += 1
            sock: Optional[SimSocket] = None
            try:
                sock = yield from self.checkout()
            except (ConnectionError, OSError) as exc:
                last_error = exc
            if sock is not None:
                timer = self.sim.schedule(self.attempt_timeout, self._expire, sock)
                try:
                    yield from sock.send_all(struct.pack(">I", size))
                    reply = yield from sock.recv_exactly(size)
                except (ConnectionError, OSError) as exc:
                    last_error = exc
                    timer.cancel()
                    self.invalidate(sock)
                else:
                    timer.cancel()
                    self.ledger.acked(rid)
                    self.checkin(sock)
                    return reply
            if attempts > self.retry_budget:
                reason = f"{type(last_error).__name__}: {last_error}"
                self.ledger.failed(rid, reason)
                self.tracer.emit(
                    self.sim.now, "clients.pool.budget_spent", self.client.name,
                    pool=self.name, attempts=attempts,
                )
                raise PoolRequestFailed(
                    f"{self.name}: request failed after {attempts} attempts"
                    f" ({reason})"
                )
            self.retries += 1
            self.tracer.emit(
                self.sim.now, "clients.pool.retry", self.client.name,
                pool=self.name, attempt=attempts,
            )
            yield self._backoff(attempts)

    def _backoff(self, attempt: int) -> float:
        """Exponential backoff with seeded jitter: base·2^(n-1)·U[0.5,1.5)."""
        raw = self.backoff_base * (2 ** (attempt - 1))
        return min(raw, self.backoff_cap) * (0.5 + self.rng.random())

    # -- health probes ----------------------------------------------------

    def start_health_probes(self) -> None:
        """Spawn the periodic idle-connection prober on the client host."""
        if self.health_interval <= 0:
            raise ValueError("health_interval must be positive to probe")
        self.client.spawn(self._health_loop(), f"{self.name}.health")

    def _health_loop(self) -> Generator:
        while True:
            yield self.health_interval
            # Probe the coldest idle socket (front of the LIFO list):
            # the warm end is validated by regular traffic already.
            if not self._idle:
                continue
            sock = self._idle.pop(0)
            timer = self.sim.schedule(self.attempt_timeout, self._expire, sock)
            try:
                yield from sock.send_all(struct.pack(">I", PROBE_SIZE))
                reply = yield from sock.recv_exactly(PROBE_SIZE)
            except (ConnectionError, OSError):
                timer.cancel()
                self.evicted += 1
                self.tracer.emit(
                    self.sim.now, "clients.pool.evict", self.client.name,
                    pool=self.name,
                )
                sock.abort()
                self._drop(sock, "probe-failed")
            else:
                timer.cancel()
                if reply == pattern_bytes(PROBE_SIZE, salt=PROBE_SIZE & 0xFF):
                    self.checkin(sock)
                else:
                    self.evicted += 1
                    sock.abort()
                    self._drop(sock, "probe-corrupt")
