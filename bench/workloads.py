"""The seven seeded workloads.

Every workload is closed loop, one process, one thread: a client issues its
next operation only after the previous one completed.  Constructing a
workload *is* the set-up (build the testbed, start the applications);
``execute()`` is the timed part; ``outcome()`` verifies every byte and reports
the simulated results.

``--seed`` reaches only this module.  It picks the testbed's RNG-registry seed
(initial sequence numbers, CPU jitter and spikes, Ethernet back-off, WAN loss
and cross traffic, think times), the payload pattern and the crash instants;
the program under test only ever sees those generated inputs.

Sizes are fixed here (``scale=1.0``) so that one timed run costs about 1.7-2.4 s
of host time on a 2-core box; ``bench/tests`` shrink them with ``scale``.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional

from repro.apps.bulk import pattern_bytes
from repro.apps.ftp import (
    FTP_CONTROL_PORT,
    FTP_DATA_PORT,
    FileStore,
    FtpClient,
    ftp_server,
)
from repro.apps.request_reply import reply_server, request_on_socket
from repro.cluster import ShardedFleet
from repro.harness import InvariantChecker, LanTestbed, WanTestbed
from repro.sim import RngRegistry
from repro.sim.process import spawn
from repro.tcp import ListeningSocket, SimSocket
from repro.workload import ClosedLoopWorkload, Fixed

PORT = 5001
CHUNK = 64 * 1024

#: Simulated seconds per ``sim.run`` call of the timed region: bounded steps,
#: because fault detectors keep the event queue busy forever.
STEP_S = 0.05

#: Simulated-seconds ceiling for any workload; reaching it means a deadlock
#: and every unfinished op is counted as failed.
SIM_LIMIT = 600.0


@dataclass
class Outcome:
    """What one run of a workload delivered, on the simulated clock."""

    attempted: int
    failed: int
    #: One entry per verified op: simulated seconds on the client's clock.
    latencies: List[float]
    #: Payload bytes that arrived and compared equal to what was sent.
    payload_bytes: int
    #: Simulated seconds from the first request to the last payload byte.
    window_s: float
    #: Simulated seconds the whole workload took (connects and closes too).
    elapsed_s: float
    #: Longest client inter-arrival gap after each injected crash.
    stalls: List[float] = field(default_factory=list)
    #: Why ops failed, for the report.
    problems: List[str] = field(default_factory=list)


def bed_seed(seed: int, name: str) -> int:
    """Testbed RNG-registry seed derived from the benchmark seed."""
    return zlib.crc32(f"bench:{name}:{seed}".encode())


class Cell:
    """Common shape of a workload: topology handles plus the drive loop."""

    name = ""
    #: What one operation is, for the report.
    op = ""
    #: Whether the InvariantChecker is on in the timed trials too; where it is
    #: not, only the traced run attaches one and the ledger leaves it out.
    checker_timed = False

    def __init__(self, seed: int, scale: float = 1.0, observe: bool = False):
        self.seed = seed
        self.scale = scale
        #: Traced runs attach an InvariantChecker; timed runs do not.
        self.observe = observe
        self.sim = None
        self.tracer = None
        self.client_hosts: list = []
        self.segments: list = []
        self.wan = None
        self.service = None
        self.checker: Optional[InvariantChecker] = None
        self.problems: List[str] = []
        self._done = False
        self._finished_at = 0.0
        self.build()

    # -- to implement ----------------------------------------------------

    def build(self) -> None:
        raise NotImplementedError

    def outcome(self) -> Outcome:
        raise NotImplementedError

    # -- shared plumbing -------------------------------------------------

    def scaled(self, count: int, floor: int = 2) -> int:
        return max(floor, int(round(count * self.scale)))

    def adopt_lan(self, bed: LanTestbed) -> None:
        self.sim, self.tracer = bed.sim, bed.tracer
        self.client_hosts = [bed.client]
        self.segments = [bed.segment]
        if bed.pair is not None:
            self.watch_pair(bed.pair)

    def watch_pair(self, pair) -> None:
        """Traced runs check the paper's invariants on every emission."""
        if not self.observe:
            return
        if self.checker is None:
            self.checker = InvariantChecker()
        checker = self.checker
        checker.attach_primary_bridge(pair.primary_bridge)
        # Reintegration re-arms with a fresh bridge object.
        pair.on_reintegrated.append(
            lambda p: checker.attach_primary_bridge(p.primary_bridge)
        )

    def client_main(self, body: Callable[[], Generator]) -> None:
        """Spawn the client process; ``execute`` runs until it returns."""

        def main() -> Generator:
            try:
                yield from body()
            except ConnectionError as exc:
                self.problems.append(f"client aborted: {exc}")
            self._finished_at = self.sim.now
            self._done = True

        spawn(self.sim, main(), f"{self.name}.client")

    def execute(self) -> None:
        """The timed region: run the simulator until the client is done.

        Bounded steps, because fault detectors keep the event queue busy
        forever; the clock a client op reads is unaffected.
        """
        sim = self.sim
        while not self._done and sim.now < SIM_LIMIT:
            sim.run(until=sim.now + STEP_S)

    def client_resets(self) -> int:
        """RSTs any client host sent: zero on a transparent service."""
        return sum(host.tcp.rsts_sent for host in self.client_hosts)

    def finish(self, attempted: int, latencies: List[float], payload: int,
               first_request: float, last_byte: float,
               stalls: Optional[List[float]] = None) -> Outcome:
        problems = list(self.problems)
        verified = len(latencies)
        resets = self.client_resets()
        if resets:
            problems.append(f"{resets} reset(s) sent by the client")
        if self.checker is not None:
            self.checker.check_replica_agreement()
            if not self.checker.ok:
                problems.append(self.checker.report())
        if not self._done:
            problems.append("client did not finish")
        failed = attempted - verified
        if problems and failed == 0:
            # A reset or invariant violation taints the run even when every
            # byte compared equal: count one op as failed so it shows.
            failed = 1
        return Outcome(
            attempted=attempted,
            failed=failed,
            latencies=latencies,
            payload_bytes=payload,
            window_s=last_byte - first_request,
            elapsed_s=self._finished_at,
            stalls=stalls or [],
            problems=problems,
        )


# ----------------------------------------------------------------------
# shared server applications
# ----------------------------------------------------------------------

def keep_sink(host, port: int, expected: int, store: Dict[str, tuple]) -> Generator:
    """Accept one connection, keep every byte, note when the last arrived."""
    listening = ListeningSocket.listen(host, port)
    sock = yield from listening.accept()
    received = bytearray()
    while len(received) < expected:
        data = yield from sock.recv(CHUNK)
        if not data:
            break
        received += data
    store[host.name] = (bytes(received), host.sim.now)
    yield from sock.close_and_wait()
    listening.close()


def stream_source(host, port: int, blob: bytes) -> Generator:
    """Serve connections forever: 4-byte request in, ``blob`` out, close."""
    listening = ListeningSocket.listen(host, port)
    served = 0
    while True:
        sock = yield from listening.accept()
        host.spawn(stream_one(sock, blob, 0, 0), f"stream-{served}")
        served += 1


def stream_one(sock: SimSocket, blob: bytes, written: int, read: int) -> Generator:
    """One transfer, resumable from the survivor's stream positions."""
    if written == 0 and read < 4:
        yield from sock.recv_exactly(4 - read)
    yield from sock.send_all(blob[written:])
    yield from sock.close_and_wait()


def count_chunks(streams: List[bytes], chunk: bytes, count: int) -> int:
    """How many of ``count`` chunk-sized ops every stream holds intact."""
    size = len(chunk)
    good = 0
    for index in range(count):
        lo = index * size
        if all(stream[lo : lo + size] == chunk for stream in streams):
            good += 1
    return good


# ----------------------------------------------------------------------
# bulk streams
# ----------------------------------------------------------------------

class BulkPush(Cell):
    name = "bulk_push"
    op = "one 64 KiB send_all (Fig. 3 at 64 KiB)"

    SENDS = 160

    def build(self) -> None:
        self.sends = self.scaled(self.SENDS)
        self.chunk = pattern_bytes(CHUNK, salt=self.seed & 0xFF)
        bed = LanTestbed(seed=bed_seed(self.seed, self.name), replicated=True,
                         failover_ports=[PORT])
        self.adopt_lan(bed)
        self.received: Dict[str, tuple] = {}
        total = self.sends * CHUNK
        bed.pair.run_app(lambda host: keep_sink(host, PORT, total, self.received), "sink")
        self.latencies: List[float] = []
        self.first_request = 0.0
        client, sim = bed.client, bed.sim

        def body() -> Generator:
            sock = SimSocket.connect(client, bed.server_ip, PORT)
            yield from sock.wait_connected()
            self.first_request = sim.now
            for _ in range(self.sends):
                started = sim.now
                yield from sock.send_all(self.chunk)
                self.latencies.append(sim.now - started)
            yield from sock.close_and_wait()

        self.client_main(body)

    def outcome(self) -> Outcome:
        streams = [data for data, _when in self.received.values()]
        good = 0
        if len(streams) == 2:
            good = min(count_chunks(streams, self.chunk, self.sends), len(self.latencies))
        last = max((when for _data, when in self.received.values()), default=0.0)
        return self.finish(self.sends, self.latencies[:good], good * CHUNK,
                           self.first_request, last)


class BulkPull(Cell):
    name = "bulk_pull"
    op = "one 256 KiB reply on a kept-open connection (Fig. 4)"

    REPLIES = 32
    REPLY = 256 * 1024

    def build(self) -> None:
        self.replies = self.scaled(self.REPLIES)
        bed = LanTestbed(seed=bed_seed(self.seed, self.name), replicated=True,
                         failover_ports=[PORT])
        self.adopt_lan(bed)
        bed.pair.run_app(lambda host: reply_server(host, PORT), "replies")
        self.latencies: List[float] = []
        self.first_request = self.last_byte = 0.0
        # The reply size carries the seed: the pattern's salt is size & 0xFF.
        self.reply = self.REPLY + (self.seed & 0xFF)
        client = bed.client

        def body() -> Generator:
            sock = SimSocket.connect(client, bed.server_ip, PORT)
            yield from sock.wait_connected()
            self.first_request = bed.sim.now
            for _ in range(self.replies):
                result: Dict = {}
                yield from request_on_socket(sock, self.reply, result)
                if result.get("intact"):
                    self.latencies.append(result["t_reply_done"] - result["t_request"])
                    self.last_byte = result["t_reply_done"]
            yield from sock.send_all(struct.pack(">I", 0))
            yield from sock.close_and_wait()

        self.client_main(body)

    def outcome(self) -> Outcome:
        return self.finish(self.replies, self.latencies,
                           len(self.latencies) * self.reply,
                           self.first_request, self.last_byte)


class BulkPlain(Cell):
    name = "bulk_plain"
    op = "64 KiB of payload: one send_all, then one 64 KiB read of a stream"

    CHUNKS = 96  # each way

    def build(self) -> None:
        self.chunks = self.scaled(self.CHUNKS)
        total = self.chunks * CHUNK
        self.chunk = pattern_bytes(CHUNK, salt=self.seed & 0xFF)
        self.blob = self.chunk * self.chunks
        bed = LanTestbed(seed=bed_seed(self.seed, self.name), replicated=False)
        self.adopt_lan(bed)
        self.received: Dict[str, tuple] = {}
        server = bed.server
        server.spawn(keep_sink(server, PORT, total, self.received), "sink")
        server.spawn(stream_source(server, PORT + 1, self.blob), "source")
        self.push_lat: List[float] = []
        self.pull_lat: List[float] = []
        self.first_request = self.last_byte = 0.0
        client, sim = bed.client, bed.sim

        def body() -> Generator:
            sock = SimSocket.connect(client, bed.server_ip, PORT)
            yield from sock.wait_connected()
            self.first_request = sim.now
            for _ in range(self.chunks):
                started = sim.now
                yield from sock.send_all(self.chunk)
                self.push_lat.append(sim.now - started)
            yield from sock.close_and_wait()
            sock = SimSocket.connect(client, bed.server_ip, PORT + 1)
            yield from sock.wait_connected()
            started = sim.now
            yield from sock.send_all(b"PULL")
            for _ in range(self.chunks):
                data = yield from sock.recv_exactly(CHUNK)
                if data == self.chunk:
                    self.pull_lat.append(sim.now - started)
                    self.last_byte = sim.now
                started = sim.now
            yield from sock.close_and_wait()

        self.client_main(body)

    def outcome(self) -> Outcome:
        streams = [data for data, _when in self.received.values()]
        pushed = min(count_chunks(streams, self.chunk, self.chunks) if streams else 0,
                     len(self.push_lat))
        latencies = self.push_lat[:pushed] + self.pull_lat
        return self.finish(2 * self.chunks, latencies, len(latencies) * CHUNK,
                           self.first_request, self.last_byte)


# ----------------------------------------------------------------------
# connection churn
# ----------------------------------------------------------------------

class ConnChurn(Cell):
    name = "conn_churn"
    op = "one connection lifetime: connect, 4 B request, 64 B reply, close (E1)"

    CONNECTIONS = 640
    REPLY = 64

    def build(self) -> None:
        self.connections = self.scaled(self.CONNECTIONS)
        bed = LanTestbed(seed=bed_seed(self.seed, self.name), replicated=True,
                         failover_ports=[PORT])
        self.adopt_lan(bed)
        bed.pair.run_app(lambda host: reply_server(host, PORT), "replies")
        self.latencies: List[float] = []
        self.first_request = self.last_byte = 0.0
        self.reply = self.REPLY
        client, sim = bed.client, bed.sim

        def body() -> Generator:
            for index in range(self.connections):
                started = sim.now
                sock = SimSocket.connect(client, bed.server_ip, PORT)
                yield from sock.wait_connected()
                if index == 0:
                    self.first_request = sim.now
                result: Dict = {}
                yield from request_on_socket(sock, self.reply, result)
                yield from sock.send_all(struct.pack(">I", 0))
                yield from sock.close_and_wait()
                if result.get("intact") and not sock.conn.reset_received:
                    self.latencies.append(sim.now - started)
                    self.last_byte = result["t_reply_done"]

        self.client_main(body)

    def outcome(self) -> Outcome:
        return self.finish(self.connections, self.latencies,
                           len(self.latencies) * self.reply,
                           self.first_request, self.last_byte)


# ----------------------------------------------------------------------
# fleet storm (E12)
# ----------------------------------------------------------------------

class FleetStorm(Cell):
    name = "fleet_storm"
    op = "one request/reply of a think-time session (E12)"
    checker_timed = True

    SHARDS = 8
    CLIENTS = 4
    #: ~880 exchanges: kept under the 1000 at which the tail turns p99, which
    #: would sit on the edge of the ~1 % of exchanges that span the storm.
    SESSIONS = 68
    REPLY = 512
    RAMP = 0.2
    HOLD_FOR = 2.5
    STORM_AT = 0.9
    THINK = 0.200
    DRAIN = 0.3
    #: Finer than ``STEP_S``: the loop's exit is where this workload's
    #: ``elapsed_s`` is read.
    STEP = 0.005

    def build(self) -> None:
        self.sessions = self.scaled(self.SESSIONS, floor=8)
        fleet = ShardedFleet(
            shards=self.SHARDS, clients=self.CLIENTS,
            seed=bed_seed(self.seed, self.name), service_port=PORT,
            enable_metrics=True, span_sample_rate=0.01,
        )
        self.fleet = fleet
        self.sim, self.tracer = fleet.sim, fleet.tracer
        self.client_hosts = list(fleet.clients)
        self.segments = [fleet.front_segment] + [shard.segment for shard in fleet.shards]
        self.service = fleet.service
        # The full observer set is part of this workload, timed runs too.
        self.checker = fleet.attach_invariant_checker()
        fleet.run_reply_service(backlog=max(64, self.sessions))
        fleet.start_detectors()
        self.workload = ClosedLoopWorkload(
            fleet.clients, fleet.virtual_ip, PORT, fleet.rng,
            sessions=self.sessions,
            reply_sizes=Fixed(self.REPLY),
            think_times=Fixed(self.THINK),
            ramp=self.RAMP, hold_for=self.HOLD_FOR, spans=fleet.spans,
        )
        self.workload.start()
        self.killed: List[str] = []
        fleet.sim.call_at(self.STORM_AT, self._storm)

    def _storm(self) -> None:
        self.killed = self.fleet.storm(fraction=0.25)

    def execute(self) -> None:
        sim, workload = self.sim, self.workload
        while not workload.complete and sim.now < SIM_LIMIT:
            sim.run(until=sim.now + self.STEP)
        self._done = workload.complete
        self._finished_at = sim.now
        # Let straggling close handshakes and detector echoes drain.
        sim.run(until=sim.now + self.DRAIN)
        if self.fleet.spans.enabled:
            self.fleet.spans.abandon_open(sim.now)

    def outcome(self) -> Outcome:
        stats = self.workload.stats
        # A failed session lost (at least) the request it had in flight.
        attempted = stats.requests_completed + stats.sessions_failed
        good = stats.requests_completed - stats.corrupt_replies
        self.problems += stats.failures
        if stats.corrupt_replies:
            self.problems.append(f"{stats.corrupt_replies} corrupt replies")
        samples = sorted(stats.latencies)  # (completion time, latency, session)
        latencies = [latency for _t, latency, _sid in samples][:good]
        first = min((t - latency for t, latency, _sid in samples), default=0.0)
        last = max((t for t, _latency, _sid in samples), default=0.0)
        # Per session on a killed shard: its slowest exchange after the storm.
        killed = set(self.killed)
        worst: Dict[int, float] = {}
        for t, latency, sid in samples:
            if t < self.STORM_AT:
                continue
            flow = stats.session_flows.get(sid)
            if flow is not None and self.service.shard_of(*flow) in killed:
                worst[sid] = max(worst.get(sid, 0.0), latency)
        return self.finish(attempted, latencies, good * self.REPLY, first, last,
                           stalls=[worst[sid] for sid in sorted(worst)])


# ----------------------------------------------------------------------
# failover + reintegration cycles (E6/E11)
# ----------------------------------------------------------------------

class FailoverCycle(Cell):
    name = "failover_cycle"
    op = "one 32 KiB read of a 256 KiB replicated pull that survives a replica crash (E6/E11)"

    CYCLES = 30
    PIECE = 32 * 1024
    PIECES = 8
    SIZE = PIECE * PIECES
    #: Lifetime of one undisturbed transfer (about 75 ms), for placing the crash.
    NOMINAL_S = SIZE / 3.5e6
    #: The crash falls in this part of the lifetime.  Never in the first 15 %:
    #: before the first RTT sample a lost segment waits out the 1 s initial
    #: RTO, a second mode five times the others.  Never in the last quarter:
    #: the server may have nothing left to send, so no read would stall, and
    #: p90 needs more than a tenth of the reads to span a crash.
    EARLIEST = 0.15
    LATEST = 0.75
    RESTART_AFTER = 0.100

    def build(self) -> None:
        self.cycles = self.scaled(self.CYCLES)
        self.blob = pattern_bytes(self.SIZE, salt=self.seed & 0xFF)
        bed = LanTestbed(seed=bed_seed(self.seed, self.name), replicated=True,
                         failover_ports=[PORT], conn_defaults={"min_rto": 0.1})
        self.adopt_lan(bed)
        bed.start_detectors()
        pair = bed.pair
        pair.auto_reintegrate = True
        blob = self.blob
        pair.run_app(lambda host: stream_source(host, PORT, blob), "source")
        pair.set_resume_app(
            lambda host, sock, resume: stream_one(sock, blob, resume.written, resume.read)
        )
        # Stratified: each cycle crashes in its own slice of that window, so
        # the share of reads served before the crash (replicated, ~11 ms) and
        # after it (direct, ~4 ms) hardly moves with the seed.
        draw = RngRegistry(self.seed).stream("bench.failover_cycle")
        order = list(range(self.cycles))
        draw.shuffle(order)
        span = self.LATEST - self.EARLIEST
        self.fractions = [self.EARLIEST + span * (slot + draw.random()) / self.cycles
                          for slot in order]
        self.latencies: List[float] = []
        self.stalls: List[float] = []
        self.first_request = self.last_byte = 0.0
        client, sim = bed.client, bed.sim

        def crash(role: str) -> None:
            host = getattr(pair, role)
            host.crash()
            sim.schedule(self.RESTART_AFTER, host.restart)

        def body() -> Generator:
            for index in range(self.cycles):
                role = "primary" if index % 2 == 0 else "secondary"
                sock = SimSocket.connect(client, bed.server_ip, PORT)
                yield from sock.wait_connected()
                started = sim.now
                if index == 0:
                    self.first_request = started
                crash_at = started + self.fractions[index] * self.NOMINAL_S
                sim.call_at(crash_at, crash, role)
                yield from sock.send_all(b"PULL")
                stall = 0.0
                for piece in range(self.PIECES):
                    data = yield from sock.recv_exactly(self.PIECE)
                    lo = piece * self.PIECE
                    if data == blob[lo : lo + self.PIECE] and not sock.conn.reset_received:
                        self.latencies.append(sim.now - started)
                        self.last_byte = sim.now
                    if sim.now > crash_at:
                        stall = max(stall, sim.now - started)
                    started = sim.now
                self.stalls.append(stall)
                yield from sock.close_and_wait()
                # Redundancy must be back before the next crash.
                waited = 0.0
                while not self._redundant(pair, index + 1):
                    if waited > 5.0:
                        self.problems.append(f"cycle {index}: no reintegration")
                        return
                    yield 0.010
                    waited += 0.010

        self.client_main(body)

    @staticmethod
    def _redundant(pair, expected: int) -> bool:
        done = pair.reintegrations
        return len(done) >= expected and done[-1].merge_complete

    def outcome(self) -> Outcome:
        return self.finish(self.cycles * self.PIECES, self.latencies,
                           len(self.latencies) * self.PIECE,
                           self.first_request, self.last_byte, stalls=self.stalls)


# ----------------------------------------------------------------------
# FTP over the WAN (Fig. 6)
# ----------------------------------------------------------------------

class WanFtp(Cell):
    name = "wan_ftp"
    op = "one FTP file transfer (get or put) over the lossy WAN (Fig. 6)"

    ROUNDS = 2
    FILE = int(1738.1 * 1024)  # the largest file of the paper's Fig. 6

    def build(self) -> None:
        self.rounds = self.scaled(self.ROUNDS, floor=1)
        self.content = pattern_bytes(self.FILE, salt=self.seed & 0xFF)
        bed = WanTestbed(seed=bed_seed(self.seed, self.name), replicated=True,
                         failover_ports=[FTP_CONTROL_PORT, FTP_DATA_PORT])
        self.sim, self.tracer = bed.sim, bed.tracer
        self.client_hosts = [bed.client]
        self.segments = [bed.segment]
        self.wan = bed.wan
        self.watch_pair(bed.pair)
        self.stores: Dict[str, FileStore] = {}

        def server(host) -> Generator:
            store = self.stores[host.name] = FileStore({"paper.bin": self.content})
            return ftp_server(host, store)

        bed.pair.run_app(server, "ftp")
        self.gets: List[float] = []
        self.puts: List[float] = []
        self.first_request = self.last_byte = 0.0
        sim = bed.sim

        def body() -> Generator:
            ftp = FtpClient(bed.client, bed.server_ip)
            yield from ftp.connect_and_login()
            self.first_request = sim.now
            for index in range(self.rounds):
                data, elapsed = yield from ftp.get("paper.bin")
                if data == self.content:
                    self.gets.append(elapsed)
                elapsed = yield from ftp.put(f"upload{index}.bin", self.content)
                self.puts.append(elapsed)
                self.last_byte = sim.now
            yield from ftp.quit()

        self.client_main(body)

    def outcome(self) -> Outcome:
        # A put counts once both replicas stored exactly what was sent.
        stored = 0
        for index in range(len(self.puts)):
            copies = [store.get(f"upload{index}.bin") for store in self.stores.values()]
            if len(copies) == 2 and all(copy == self.content for copy in copies):
                stored += 1
        latencies = self.gets + self.puts[:stored]
        return self.finish(2 * self.rounds, latencies, len(latencies) * self.FILE,
                           self.first_request, self.last_byte)


WORKLOADS: Dict[str, type] = {
    cell.name: cell
    for cell in (BulkPush, BulkPull, BulkPlain, ConnChurn, FleetStorm,
                 FailoverCycle, WanFtp)
}
