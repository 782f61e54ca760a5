"""The cell core: what every bridge cell runs and what every bridge cell checks.

A *bridge cell* is one seeded bulk transfer through a replicated pair on a
:class:`~repro.harness.topology.ChaosLan`, disturbed in some plane-specific
way and judged by the :class:`~repro.harness.invariants.InvariantChecker`.
The chaos matrix (:mod:`repro.harness.chaos`) disturbs it with fault rules,
the attack matrix (:mod:`repro.adversary.matrix`) with an off-path attacker;
the workload, the run, the standard verdicts, the timing anchor, the result
shape and the matrix plumbing are the same and live here.

The client's ISS is pinned just below the 2³²-wraparound so every cell
also crosses sequence-number wrap within its first few kilobytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence

from repro.apps.bulk import pattern_bytes
from repro.harness.invariants import Violation
from repro.harness.topology import ChaosLan
from repro.net.host import Host
from repro.obs.flight import FlightRecorder
from repro.sim.process import Process, spawn
from repro.sim.trace import Tracer
from repro.tcp.seqnum import seq_add
from repro.tcp.socket_api import ListeningSocket, SimSocket

# Client ISS pinned so payload byte ~4k crosses the 32-bit wrap: every
# cell stresses wraparound arithmetic.
CLIENT_ISS = 0xFFFF_F000
STREAM_START = seq_add(CLIENT_ISS, 1)

PORT = 80
SETTLE = 0.3  # simulated seconds run after the client finishes


@dataclass
class CellResult:
    """Everything a failing cell needs to be diagnosed and replayed."""

    spec: Any
    violations: List[Violation] = field(default_factory=list)
    recipe: str = ""
    incident: str = ""
    acked: int = 0
    delivered: int = 0
    finished: bool = False
    failed_over: bool = False
    duration: float = 0.0
    # Trace stream of the run (a Tracer), for post-hoc flight-recorder
    # analysis; excluded from repr to keep describe()/logs readable.
    tracer: Optional[Tracer] = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return not self.violations

    def counts(self) -> str:
        """The plane's own headline counters, for :meth:`describe`."""
        return f"failed_over={self.failed_over} delivered={self.delivered}"

    def incident_report(self, note: str = "") -> str:
        """The flight recorder's report over this run's recorded trace."""
        return FlightRecorder(self.tracer).incident_report(
            title=f"{self.spec}{note}",
            violations=[str(v) for v in self.violations],
        )

    def describe(self) -> str:
        status = "ok" if self.ok else "FAIL"
        lines = [f"[{status}] {self.spec}: {self.counts()} t={self.duration:.3f}"]
        lines += [f"  {v}" for v in self.violations]
        if not self.ok:
            for title, text in (("recipe", self.recipe),
                                ("incident report", self.incident)):
                if text:
                    lines.append(f"  {title}:")
                    lines += [f"    {line}" for line in text.splitlines()]
        return "\n".join(lines)


class BridgeCell:
    """One bulk transfer through the pair of a checked LAN.

    ``direction="upload"`` (client → servers) is where the
    acked-byte-lost invariant lives; ``"download"`` exercises the reverse.
    Receive buffers are registered up front and grown chunk-by-chunk so a
    cell that stalls mid-transfer still reports how far each side got.
    """

    def __init__(self, lan: ChaosLan, size: int, direction: str = "upload"):
        self.lan = lan
        self.size = size
        self.direction = direction
        self.blob = pattern_bytes(size)
        self.received: Dict[str, bytearray] = {}
        self.sock: Optional[SimSocket] = None
        self.process: Optional[Process] = None
        lan.client.tcp.choose_iss = lambda: CLIENT_ISS
        lan.start_detectors()

    # -- workload --------------------------------------------------------

    @staticmethod
    def drain(
        sock: SimSocket, data: bytearray, limit: Optional[int] = None
    ) -> Generator:
        """Receive into ``data`` until EOF (or until it holds ``limit`` bytes)."""
        while limit is None or len(data) < limit:
            chunk = yield from sock.recv(65536)
            if not chunk:
                break
            data.extend(chunk)

    def server_app(self, host: Host) -> Generator:
        listening = ListeningSocket.listen(host, PORT)
        sock = yield from listening.accept()
        if self.direction == "upload":
            data = self.received.setdefault(host.name, bytearray())
            yield from self.drain(sock, data)
        else:
            request = yield from sock.recv_exactly(4)
            assert request == b"PULL", request
            yield from sock.send_all(self.blob)
        yield from sock.close_and_wait()

    def client(self) -> Generator:
        lan = self.lan
        sock = SimSocket.connect(lan.client, lan.server_ip, PORT, min_rto=0.05)
        self.sock = sock
        yield from sock.wait_connected()
        if self.direction == "upload":
            yield from sock.send_all(self.blob)
        else:
            yield from sock.send_all(b"PULL")
            data = self.received.setdefault("client", bytearray())
            yield from self.drain(sock, data, limit=len(self.blob))
        yield from sock.close_and_wait()

    def serving_host(self) -> Host:
        """The replica holding the authoritative stream: the pair's
        *current* primary — reintegration swaps roles, so go through the
        live pair object rather than assuming the original assignment."""
        pair = self.lan.pair
        return pair.secondary if pair.failed_over else pair.primary

    # -- run and verdicts ------------------------------------------------

    def start(self) -> None:
        """Start the replicated server app and the client."""
        self.lan.pair.run_app(self.server_app)
        self.process = spawn(self.lan.sim, self.client(), "cell-client")

    def finish(self, result: CellResult, until: float) -> None:
        """Run until the client is done (or ``until``), let in-flight events
        settle, and reach the standard verdicts: liveness, every receiver
        holds a prefix of the stream, no acknowledged byte is lost, a
        finished transfer is complete, no reset reached the client, the
        replicas agree."""
        lan, blob, done = self.lan, self.blob, self.process.done_event
        lan.sim.run_until(lambda: done.triggered, timeout=until)
        result.finished = done.triggered
        result.duration = lan.sim.now
        lan.sim.run(until=lan.sim.now + SETTLE)

        checker, now = lan.checker, lan.sim.now
        result.failed_over = lan.pair.failed_over
        if not result.finished:
            checker.violations.append(Violation(
                now, "liveness",
                f"client did not finish within {until}s of simulated time",
            ))
        holder = self.serving_host().name if self.direction == "upload" else "client"
        delivered = bytes(self.received.get(holder, b""))
        checker.check_stream_prefix(holder, blob, delivered, now=now)
        for name, data in self.received.items():
            if name != holder:
                checker.check_stream_prefix(name, blob, bytes(data), now=now)
        if self.direction == "upload":
            acked_seq = self.sock.conn.snd_una if self.sock is not None else None
            result.acked = checker.check_acked_bytes_delivered(
                blob, acked_seq, STREAM_START, len(delivered), now=now
            )
        result.delivered = len(delivered)
        if result.finished and len(delivered) != self.size:
            checker.violations.append(Violation(
                now, "completeness",
                f"transfer finished but {holder} holds"
                f" {len(delivered)}/{self.size} bytes",
            ))
        lan.finish_checks()
        result.violations = checker.violations
        result.recipe = lan.plane.recipe()


@lru_cache(maxsize=None)
def clean_duration(seed: int, direction: str, size: int) -> float:
    """Undisturbed transfer time for this seed — anchors crash/burst times."""
    cell = BridgeCell(ChaosLan(seed=seed, failover_ports=(PORT,)), size, direction)
    cell.start()
    result = CellResult(spec=None)
    cell.finish(result, until=90.0)
    return result.duration


def attach_incident(result: CellResult, tracer: Tracer) -> None:
    """Keep the trace stream; render an incident report on failure."""
    if tracer.records:
        result.tracer = tracer
        if not result.ok:
            result.incident = result.incident_report()


def run_matrix(run_one: Callable, specs: Sequence, until: float) -> list:
    """Run many cells; returns every result (callers assert on failures)."""
    return [run_one(spec, until=until) for spec in specs]


def summarize(results: Sequence[CellResult]) -> str:
    failed = [r for r in results if not r.ok]
    lines = [f"{len(results) - len(failed)}/{len(results)} cells passed"]
    lines += [r.describe() for r in failed]
    return "\n".join(lines)
