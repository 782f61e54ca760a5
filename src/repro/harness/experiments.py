"""One runner per paper table/figure (see DESIGN.md §4 for the index).

Every ``measure_*`` runner builds a fresh calibrated testbed, drives the
workload as the paper describes, and returns plain numbers.  Below them is
the catalogue: one ``*_report`` function per table/figure that runs the
sweep and returns a :class:`~repro.harness.report.Report` (table, BENCH
payload, raw numbers), and one ``*_command`` per CLI subcommand that
declares the flags that sweep takes.  ``python -m repro`` and the
``benchmarks/`` wrappers both call the ``*_report`` functions, so a figure
has one definition.

Figure 3/4 sweeps use the paper's message sizes (64 B – 1 MB, powers of
two); Figure 6 uses the paper's file sizes.  Figure 5's streams are 100 MB
in the paper — runners take ``total_bytes`` so CI can use a scaled stream
(the rate is bottleneck-bound and flat beyond a few MB).
"""

from __future__ import annotations

import struct
from typing import Dict, Generator, List, Optional, Sequence

from repro.apps import bulk, request_reply
from repro.apps.ftp import FileStore, FtpClient, ftp_server
from repro.apps.ftp.protocol import FTP_CONTROL_PORT, FTP_DATA_PORT
from repro.harness.metrics import Stats, rate_kb_s, summarize
from repro.harness.report import Report, Table
from repro.harness.topology import LanTestbed, WanTestbed
from repro.sim.process import spawn
from repro.tcp.socket_api import ListeningSocket, SimSocket

# The paper's sweeps.
FIG3_SIZES = [64 * (2 ** i) for i in range(15)]  # 64 B .. 1 MB
FIG4_SIZES = FIG3_SIZES
FIG6_FILE_SIZES_KB = [0.2, 1.3, 18.2, 144.9, 1738.1]

SERVICE_PORT = 5001


# ======================================================================
# E1 — connection setup time (§9, text table)
# ======================================================================

def measure_connection_setup(
    replicated: bool, trials: int = 100, seed: int = 0
) -> Stats:
    """Median/max client connect() time over ``trials`` connections."""
    bed = LanTestbed(seed=seed, replicated=replicated, failover_ports=[SERVICE_PORT])
    samples: List[float] = []

    def server_app(host):
        def app() -> Generator:
            listening = ListeningSocket.listen(host, SERVICE_PORT)
            while True:
                sock = yield from listening.accept()
                host.spawn(_drain_and_close(sock), "setup-conn")
        return app()

    def _drain_and_close(sock: SimSocket) -> Generator:
        while True:
            data = yield from sock.recv(4096)
            if not data:
                break
        yield from sock.close_and_wait()

    if replicated:
        bed.pair.run_app(server_app, "setup-server")
    else:
        bed.server.spawn(server_app(bed.server), "setup-server")

    def client_proc() -> Generator:
        for _ in range(trials):
            start = bed.sim.now
            sock = SimSocket.connect(bed.client, bed.server_ip, SERVICE_PORT)
            yield from sock.wait_connected()
            samples.append(bed.sim.now - start)
            yield from sock.close_and_wait()
            yield 0.005  # settle between trials, as back-to-back runs would

    spawn(bed.sim, client_proc(), "setup-client")
    bed.run(until=trials * 0.1 + 5.0)
    if len(samples) != trials:
        raise RuntimeError(f"only {len(samples)}/{trials} connects completed")
    return summarize(samples)


# ======================================================================
# E2 — Figure 3: client-to-server send time vs message size
# ======================================================================

def measure_send_time(
    size: int, replicated: bool, trials: int = 9, seed: int = 0
) -> Stats:
    """Median time for the client send() of a ``size``-byte message."""
    bed = LanTestbed(seed=seed, replicated=replicated, failover_ports=[SERVICE_PORT])
    samples: List[float] = []

    def server_app(host):
        def app() -> Generator:
            listening = ListeningSocket.listen(host, SERVICE_PORT)
            while True:
                sock = yield from listening.accept()
                host.spawn(_sink_one(sock), "fig3-conn")
        return app()

    def _sink_one(sock: SimSocket) -> Generator:
        while True:
            data = yield from sock.recv(65536)
            if not data:
                break
        yield from sock.close_and_wait()

    if replicated:
        bed.pair.run_app(server_app, "fig3-server")
    else:
        bed.server.spawn(server_app(bed.server), "fig3-server")

    payload = bulk.pattern_bytes(size)

    def client_proc() -> Generator:
        for _ in range(trials):
            sock = SimSocket.connect(bed.client, bed.server_ip, SERVICE_PORT)
            yield from sock.wait_connected()
            start = bed.sim.now
            yield from sock.send_all(payload)
            samples.append(bed.sim.now - start)
            yield from sock.close_and_wait()
            yield 0.01

    spawn(bed.sim, client_proc(), "fig3-client")
    bed.run(until=trials * (size / 2e6 + 0.5) + 5.0)
    if len(samples) != trials:
        raise RuntimeError(f"only {len(samples)}/{trials} sends completed")
    return summarize(samples)


# ======================================================================
# E3 — Figure 4: server-to-client transfer time vs reply size
# ======================================================================

def measure_request_reply(
    size: int, replicated: bool, trials: int = 9, seed: int = 0
) -> Stats:
    """Median time from 4-byte request to last reply byte (client clock)."""
    bed = LanTestbed(seed=seed, replicated=replicated, failover_ports=[SERVICE_PORT])
    samples: List[float] = []

    def server_app(host):
        return request_reply.reply_server(host, SERVICE_PORT)

    if replicated:
        bed.pair.run_app(server_app, "fig4-server")
    else:
        bed.server.spawn(server_app(bed.server), "fig4-server")

    def client_proc() -> Generator:
        for _ in range(trials):
            results: Dict = {}
            yield from request_reply.request_once(
                bed.client, bed.server_ip, SERVICE_PORT, size, results
            )
            if not results.get("intact"):
                raise RuntimeError("reply corrupted")
            samples.append(results["t_reply_done"] - results["t_request"])
            yield 0.01

    spawn(bed.sim, client_proc(), "fig4-client")
    bed.run(until=trials * (size / 1e6 + 0.5) + 5.0)
    if len(samples) != trials:
        raise RuntimeError(f"only {len(samples)}/{trials} exchanges completed")
    return summarize(samples)


# ======================================================================
# E4 — Figure 5: send/receive rates for long streams
# ======================================================================

def measure_stream_rates(
    total_bytes: int = 10_000_000, replicated: bool = True, seed: int = 0
) -> Dict[str, float]:
    """KB/s for a client→server stream (send) and server→client (receive)."""
    # --- send direction -------------------------------------------------
    bed = LanTestbed(seed=seed, replicated=replicated, failover_ports=[SERVICE_PORT])
    send_results: Dict = {}

    def sink_app(host):
        def app() -> Generator:
            listening = ListeningSocket.listen(host, SERVICE_PORT)
            sock = yield from listening.accept()
            received = 0
            while True:
                data = yield from sock.recv(65536)
                if not data:
                    break
                received += len(data)
            send_results.setdefault("received", received)
            yield from sock.close_and_wait()
        return app()

    if replicated:
        bed.pair.run_app(sink_app, "fig5-sink")
    else:
        bed.server.spawn(sink_app(bed.server), "fig5-sink")

    spawn(
        bed.sim,
        bulk.push_client(bed.client, bed.server_ip, SERVICE_PORT, total_bytes, send_results),
        "fig5-push",
    )
    bed.run(until=total_bytes / 2e5 + 30.0)
    if "t_closed" not in send_results:
        raise RuntimeError("send stream did not complete")
    send_rate = rate_kb_s(
        total_bytes, send_results["t_closed"] - send_results["t_connected"]
    )

    # --- receive direction ------------------------------------------------
    bed = LanTestbed(seed=seed + 1, replicated=replicated, failover_ports=[SERVICE_PORT])
    recv_results: Dict = {}

    def source_app(host):
        return bulk.source_server(host, SERVICE_PORT, total_bytes)

    if replicated:
        bed.pair.run_app(source_app, "fig5-source")
    else:
        bed.server.spawn(source_app(bed.server), "fig5-source")

    spawn(
        bed.sim,
        bulk.pull_client(
            bed.client, bed.server_ip, SERVICE_PORT, total_bytes, recv_results,
            verify=False,
        ),
        "fig5-pull",
    )
    bed.run(until=total_bytes / 2e5 + 30.0)
    if "t_last_byte" not in recv_results:
        raise RuntimeError("receive stream did not complete")
    recv_rate = rate_kb_s(
        total_bytes, recv_results["t_last_byte"] - recv_results["t_request_sent"]
    )
    return {"send_rate_kb_s": send_rate, "recv_rate_kb_s": recv_rate}


# ======================================================================
# E5 — Figure 6: FTP get/put rates over a WAN
# ======================================================================

def measure_ftp_rates(
    file_size_kb: float,
    replicated: bool,
    trials: int = 5,
    seed: int = 0,
) -> Dict[str, float]:
    """Median client-reported get and put rates in KB/s."""
    size = max(1, int(file_size_kb * 1024))
    content = bulk.pattern_bytes(size, salt=int(file_size_kb * 10) & 0xFF)
    get_rates: List[float] = []
    put_rates: List[float] = []

    for trial in range(trials):
        bed = WanTestbed(
            seed=seed * 1000 + trial,
            replicated=replicated,
            failover_ports=[FTP_CONTROL_PORT, FTP_DATA_PORT],
        )
        done: Dict = {}

        def server_app(host):
            store = FileStore({"paper.bin": content})
            return ftp_server(host, store)

        if replicated:
            bed.pair.run_app(server_app, "ftp")
        else:
            bed.server.spawn(server_app(bed.server), "ftp")

        def client_proc() -> Generator:
            ftp = FtpClient(bed.client, bed.server_ip)
            yield from ftp.connect_and_login()
            data, get_elapsed = yield from ftp.get("paper.bin")
            if data != content:
                raise RuntimeError("FTP get corrupted the file")
            put_elapsed = yield from ftp.put("upload.bin", content)
            yield from ftp.quit()
            done["get"] = rate_kb_s(size, get_elapsed)
            done["put"] = rate_kb_s(size, put_elapsed)

        spawn(bed.sim, client_proc(), "ftp-client")
        bed.run(until=size / 1e4 + 120.0)
        if "get" not in done:
            raise RuntimeError(f"FTP trial {trial} did not complete")
        get_rates.append(done["get"])
        put_rates.append(done["put"])

    return {
        "get_kb_s": summarize(get_rates).median,
        "put_kb_s": summarize(put_rates).median,
        "get_all": get_rates,
        "put_all": put_rates,
    }


# ======================================================================
# E6 — failover timeline (extension of §5's analysis)
# ======================================================================

def measure_failover(
    total_bytes: int = 2_000_000,
    crash_at: float = 0.100,
    crash: str = "primary",
    detector_timeout: float = 0.050,
    client_arp_delay: float = 0.5e-3,
    seed: int = 0,
    min_rto: float = 0.2,
    record_traces: bool = False,
    metrics=None,
) -> Dict[str, float]:
    """Crash a replica mid-stream; measure the client-visible stall.

    Returns the longest gap between byte arrivals at the client after the
    crash instant, whether the stream arrived intact, and the total
    transfer time.

    With ``record_traces=True`` the result additionally carries the
    testbed's tracer, a :class:`repro.obs.flight.FlightRecorder` over it,
    and the failover phase breakdown (``phases``, ``phase_total_s``,
    ``client_gap_s``) — the basis of ``python -m repro obs report``.
    """
    bed = LanTestbed(
        seed=seed,
        replicated=True,
        failover_ports=[SERVICE_PORT],
        detector_timeout=detector_timeout,
        client_arp_delay=client_arp_delay,
        conn_defaults={"min_rto": min_rto},
        record_traces=record_traces,
        metrics=metrics,
    )
    bed.start_detectors()

    def source_app(host):
        return bulk.source_server(host, SERVICE_PORT, total_bytes)

    bed.pair.run_app(source_app, "failover-source")

    arrivals: List[float] = []
    outcome: Dict = {}

    def client_proc() -> Generator:
        sock = SimSocket.connect(bed.client, bed.server_ip, SERVICE_PORT)
        yield from sock.wait_connected()
        yield from sock.send_all(b"PULL")
        received = bytearray()
        while len(received) < total_bytes:
            data = yield from sock.recv(65536)
            if not data:
                break
            received.extend(data)
            arrivals.append(bed.sim.now)
        outcome["intact"] = bytes(received) == bulk.pattern_bytes(total_bytes)
        outcome["t_done"] = bed.sim.now
        yield from sock.close_and_wait()

    spawn(bed.sim, client_proc(), "failover-client")
    if crash == "primary":
        bed.sim.schedule(crash_at, bed.pair.crash_primary)
    elif crash == "secondary":
        bed.sim.schedule(crash_at, bed.pair.crash_secondary)
    bed.run(until=total_bytes / 1e5 + 60.0)
    if "t_done" not in outcome:
        raise RuntimeError("stream did not complete after failover")

    stall = 0.0
    for before, after in zip(arrivals, arrivals[1:]):
        if after > crash_at and after - before > stall:
            stall = after - before
    result = {
        "intact": outcome["intact"],
        "stall_s": stall,
        "total_s": outcome["t_done"],
        "detector_timeout": detector_timeout,
    }
    if record_traces:
        from repro.obs.flight import FlightRecorder

        recorder = FlightRecorder(bed.tracer)
        breakdown = recorder.phase_breakdown()
        result["tracer"] = bed.tracer
        result["recorder"] = recorder
        result["breakdown"] = breakdown
        if breakdown is not None:
            result["phases"] = breakdown.durations()
            result["phase_total_s"] = breakdown.total
            result["client_gap_s"] = breakdown.client_gap
    return result


# ======================================================================
# E7 — ablation: min-ACK merging vs forwarding the primary's ACK
# ======================================================================

def measure_minack_ablation(
    ack_merging: bool,
    total_bytes: int = 300_000,
    drop_at_byte: int = 120_000,
    crash_at: float = 0.060,
    seed: int = 0,
) -> Dict[str, object]:
    """Client pushes a stream; the secondary drops one snooped frame; the
    primary then crashes.

    With min-ACK merging (the paper's rule) the dropped segment is never
    acknowledged to the client, the client retransmits it, and the stream
    survives the failover intact.  Without merging the primary's own ACK
    covers the dropped bytes, the client discards them forever, and the
    surviving secondary is left with a hole.
    """
    bed = LanTestbed(
        seed=seed,
        replicated=True,
        failover_ports=[SERVICE_PORT],
        ack_merging=ack_merging,
        conn_defaults={"min_rto": 0.1},
    )
    bed.start_detectors()

    received: Dict[str, bytes] = {}

    def sink_app(host):
        def app() -> Generator:
            listening = ListeningSocket.listen(host, SERVICE_PORT)
            sock = yield from listening.accept()
            data = bytearray()
            while True:
                try:
                    chunk = yield from sock.recv(65536)
                except ConnectionError:
                    break
                if not chunk:
                    break
                data.extend(chunk)
            received[host.name] = bytes(data)
            yield from sock.close_and_wait()
        return app()

    bed.pair.run_app(sink_app, "ablation-sink")

    # Drop exactly one snooped client data frame at the secondary: the
    # first frame whose TCP payload covers ``drop_at_byte`` bytes into the
    # stream (approximated by a payload-size countdown).
    state = {"seen": 0, "dropped": False}

    def drop_hook(frame) -> bool:
        from repro.net.packet import Ipv4Datagram
        payload = frame.payload
        if not isinstance(payload, Ipv4Datagram):
            return False
        segment = getattr(payload, "payload", None)
        data = getattr(segment, "payload", b"")
        if not data or payload.dst != bed.pair.primary_ip:
            return False
        state["seen"] += len(data)
        if not state["dropped"] and state["seen"] >= drop_at_byte:
            state["dropped"] = True
            return True
        return False

    bed.secondary.nic.rx_drop_hook = drop_hook

    stream = bulk.pattern_bytes(total_bytes)
    outcome: Dict = {}

    def client_proc() -> Generator:
        sock = SimSocket.connect(bed.client, bed.server_ip, SERVICE_PORT)
        yield from sock.wait_connected()
        try:
            yield from sock.send_all(stream)
            yield from sock.close_and_wait()
            outcome["client_ok"] = True
        except ConnectionError:
            outcome["client_ok"] = False

    spawn(bed.sim, client_proc(), "ablation-client")
    bed.sim.schedule(crash_at, bed.pair.crash_primary)
    bed.run(until=30.0)

    survivor = received.get("secondary", b"")
    return {
        "ack_merging": ack_merging,
        "frame_dropped": state["dropped"],
        "survivor_bytes": len(survivor),
        "survivor_intact": survivor == stream,
        "client_ok": outcome.get("client_ok", False),
    }


# ======================================================================
# E9 — extension: daisy-chain replication depth
# ======================================================================

def measure_chain_depth(
    replicas: int, total_bytes: int = 2_500_000, seed: int = 0
) -> float:
    """Server→client stream rate (KB/s) through a chain of ``replicas``.

    ``replicas == 1`` is the unreplicated standard-TCP baseline.
    """
    from repro.failover.chain import ReplicatedChain
    from repro.harness.topology import (
        BRIDGE_COST,
        CLIENT_IP,
        CLIENT_PROFILE,
        EMIT_COST,
        SERVER_PROFILE,
        Lan,
    )
    from repro.net.addresses import Ipv4Address

    lan = Lan(seed, collision_prob=0.05)
    sim = lan.sim
    client = lan.add_host("client", 1, CLIENT_IP, CLIENT_PROFILE)
    members = [
        lan.add_host(
            f"replica{index}", 10 + index,
            Ipv4Address(f"10.0.0.{10 + index}"), SERVER_PROFILE,
        )
        for index in range(replicas)
    ]
    lan.warm_arp()

    from repro.apps import bulk as bulk_app

    if replicas == 1:
        members[0].spawn(
            bulk_app.source_server(members[0], SERVICE_PORT, total_bytes), "src"
        )
        service_ip = members[0].ip.primary_address()
    else:
        chain = ReplicatedChain(
            members, failover_ports=[SERVICE_PORT],
            bridge_cost=BRIDGE_COST, emit_cost=EMIT_COST,
        )
        chain.run_app(
            lambda host: bulk_app.source_server(host, SERVICE_PORT, total_bytes)
        )
        service_ip = chain.service_ip

    results: Dict = {}
    spawn(
        sim,
        bulk_app.pull_client(
            client, service_ip, SERVICE_PORT, total_bytes, results, verify=False
        ),
        "pull",
    )
    sim.run(until=total_bytes / 5e4 + 60.0)
    if "t_last_byte" not in results:
        raise RuntimeError(f"depth-{replicas} stream did not complete")
    from repro.harness.metrics import rate_kb_s

    return rate_kb_s(total_bytes, results["t_last_byte"] - results["t_request_sent"])


# ======================================================================
# E8 — ablation: min-window merging vs advertising the primary's window
# ======================================================================

def measure_minwindow_ablation(
    window_merging: bool,
    total_bytes: int = 400_000,
    secondary_recv_buffer: int = 8 * 1024,
    read_chunk: int = 4 * 1024,
    read_interval: float = 0.002,
    seed: int = 0,
) -> Dict[str, object]:
    """Client pushes a stream to a pair whose secondary has a small
    receive buffer and a paced consumer.

    §3.2: min-window "adapts the client's send rate to the slower of the
    two servers and, thus, reduces the risk of message loss."  With the
    merge the client never overruns the secondary; without it the client
    fills the primary's large window and the overflow is trimmed at the
    secondary, recovered only by retransmission stalls.
    """
    bed = LanTestbed(
        seed=seed,
        replicated=True,
        failover_ports=[SERVICE_PORT],
        window_merging=window_merging,
        conn_defaults={"min_rto": 0.1},
    )
    bed.secondary.tcp.conn_defaults["recv_buffer_size"] = secondary_recv_buffer

    received: Dict[str, int] = {}
    sink_conns: Dict[str, object] = {}

    def paced_sink(host):
        def app() -> Generator:
            listening = ListeningSocket.listen(host, SERVICE_PORT)
            sock = yield from listening.accept()
            sink_conns[host.name] = sock.conn
            total = 0
            while True:
                data = sock.conn.read(read_chunk)
                if data:
                    total += len(data)
                elif sock.conn.eof:
                    break
                elif sock.conn.reset_received:
                    break
                else:
                    yield sock.conn.wait_readable()
                    continue
                yield read_interval  # paced consumer
            received[host.name] = total
            yield from sock.close_and_wait()
        return app()

    bed.pair.run_app(paced_sink, "paced-sink")
    import repro.apps.bulk as bulk_app

    stream = bulk_app.pattern_bytes(total_bytes)
    outcome: Dict = {}

    def client() -> Generator:
        sock = SimSocket.connect(bed.client, bed.server_ip, SERVICE_PORT)
        yield from sock.wait_connected()
        yield from sock.send_all(stream)
        yield from sock.close_and_wait()
        outcome["t_done"] = bed.sim.now

    spawn(bed.sim, client(), "paced-client")
    bed.run(until=120.0)
    if "t_done" not in outcome:
        raise RuntimeError("paced stream did not complete")
    secondary_conn = sink_conns.get("secondary")
    trimmed = (
        secondary_conn.recv_buffer.bytes_trimmed
        if secondary_conn is not None and secondary_conn.recv_buffer is not None
        else 0
    )
    return {
        "window_merging": window_merging,
        "completion_s": outcome["t_done"],
        "secondary_bytes": received.get("secondary", 0),
        "primary_bytes": received.get("primary", 0),
        "secondary_trimmed": trimmed,
        "intact": received.get("secondary", 0) == total_bytes
        and received.get("primary", 0) == total_bytes,
    }


# ======================================================================
# E11 — reintegration: restore redundancy, survive repeated failures
# ======================================================================

def measure_reintegration(
    total_bytes: int = 1_500_000,
    crash_at: float = 0.100,
    restart_after: float = 0.100,
    crash_again_after: float = 0.450,
    double: bool = True,
    detector_timeout: float = 0.050,
    seed: int = 0,
    min_rto: float = 0.2,
    record_traces: bool = False,
    metrics=None,
) -> Dict[str, object]:
    """Crash the primary mid-download, restart it, reintegrate it as the
    live secondary — and (``double=True``) then crash the new primary too.

    The client must receive the byte-exact stream with zero resets across
    *both* failovers; the paper's machinery alone survives only the
    first.  Returns the stalls, the reintegration outcome and (with
    ``record_traces``) the recorder's failover + reintegration tilings.
    """
    bed = LanTestbed(
        seed=seed,
        replicated=True,
        failover_ports=[SERVICE_PORT],
        detector_timeout=detector_timeout,
        conn_defaults={"min_rto": min_rto},
        record_traces=record_traces,
        metrics=metrics,
    )
    bed.start_detectors()
    pair = bed.pair
    pair.auto_reintegrate = True
    pair.reintegrate_delay = 0.020

    blob = bulk.pattern_bytes(total_bytes)

    def source_app(host):
        return bulk.source_server(host, SERVICE_PORT, total_bytes)

    pair.run_app(source_app, "reint-source")

    def resume_source(host, sock, resume):
        def app() -> Generator:
            if resume.written == 0 and resume.read < 4:
                yield from sock.recv_exactly(4 - resume.read)
            yield from sock.send_all(blob[resume.written:])
            yield from sock.close_and_wait()
        return app()

    pair.set_resume_app(resume_source)

    arrivals: List[float] = []
    outcome: Dict = {}

    def client_proc() -> Generator:
        sock = SimSocket.connect(bed.client, bed.server_ip, SERVICE_PORT)
        yield from sock.wait_connected()
        yield from sock.send_all(b"PULL")
        received = bytearray()
        while len(received) < total_bytes:
            data = yield from sock.recv(65536)
            if not data:
                break
            received.extend(data)
            arrivals.append(bed.sim.now)
        outcome["intact"] = bytes(received) == blob
        outcome["t_done"] = bed.sim.now
        yield from sock.close_and_wait()

    spawn(bed.sim, client_proc(), "reint-client")
    bed.sim.schedule(crash_at, bed.pair.crash_primary)
    bed.sim.schedule(crash_at + restart_after, bed.primary.restart)
    if double:
        # Crash whoever is primary *then* — after reintegration that is
        # the original secondary, so the reintegrated replica takes over.
        bed.sim.schedule(
            crash_at + crash_again_after, lambda: bed.pair.primary.crash()
        )
    bed.run(until=total_bytes / 1e5 + 60.0)
    if "t_done" not in outcome:
        raise RuntimeError("stream did not complete after reintegration")

    stall = 0.0
    for before, after in zip(arrivals, arrivals[1:]):
        if after > crash_at and after - before > stall:
            stall = after - before
    result = {
        "intact": outcome["intact"],
        "stall_s": stall,
        "total_s": outcome["t_done"],
        "reintegrations": len(pair.reintegrations),
        "redundancy_restored": any(
            r.merge_complete for r in pair.reintegrations
        ),
        "resumed_connections": sum(r.resumed for r in pair.reintegrations),
    }
    if record_traces:
        from repro.obs.flight import FlightRecorder

        recorder = FlightRecorder(bed.tracer)
        result["tracer"] = bed.tracer
        result["recorder"] = recorder
        result["failover_breakdowns"] = recorder.phase_breakdowns()
        result["reintegration_breakdowns"] = recorder.reintegration_breakdowns()
    return result


# ======================================================================
# The catalogue: one ``sweep parameters -> Report`` per table/figure
# ======================================================================

#: Every paper figure compares these two, in this order.
MODES = (("standard", False), ("failover", True))


def setup_report(trials: int) -> Report:
    """E1 (§9 text table).  ``raw[mode]`` is that mode's :class:`Stats`."""
    raw = {
        mode: measure_connection_setup(replicated, trials=trials)
        for mode, replicated in MODES
    }
    paper = {"standard": "294 / 603", "failover": "505 / 1193"}
    return Report(
        "setup", {"trials": trials},
        [{"label": mode, "metrics": {"median_us": stats.median * 1e6}}
         for mode, stats in raw.items()],
        stats={mode: stats.as_dict() for mode, stats in raw.items()},
        tables=[Table(
            "E1: connection setup (us)", ["mode", "median", "max", "paper"],
            [(mode, f"{stats.median * 1e6:.0f}", f"{stats.maximum*1e6:.0f}",
              paper[mode]) for mode, stats in raw.items()],
        )],
        raw=raw,
    )


def _size_sweep_report(
    name: str, title: str, measure, sizes: Sequence[int], trials: int,
    scale: float, metric: str, digits: int,
) -> Report:
    """Fig. 3 and Fig. 4 are the same sweep over two measurements:
    median of ``measure(size, replicated)`` in both modes at every size."""
    raw: Dict[str, Dict[int, Stats]] = {mode: {} for mode, _ in MODES}
    rows, results, stats = [], [], {}
    for size in sizes:
        for mode, replicated in MODES:
            measured = raw[mode][size] = measure(size, replicated, trials=trials)
            label = f"{mode} {size}B"
            results.append(
                {"label": label, "metrics": {metric: measured.median * scale}}
            )
            stats[label] = measured.as_dict()
        std, fo = raw["standard"][size], raw["failover"][size]
        rows.append((
            size, f"{std.median * scale:.{digits}f}",
            f"{fo.median * scale:.{digits}f}", f"{fo.median/std.median:.2f}x",
        ))
    return Report(
        name, {"trials": trials}, results, stats=stats,
        tables=[Table(title, ["bytes", "standard", "failover", "ratio"], rows)],
        raw=raw,
    )


def send_time_report(sizes: Sequence[int], trials: int) -> Report:
    """E2 / Fig. 3.  ``raw[mode][size]`` is the :class:`Stats` of send()."""
    return _size_sweep_report(
        "fig3_send_time", "E2 / Fig 3: send time (us, median)",
        measure_send_time, sizes, trials, 1e6, "median_us", 0,
    )


def request_reply_report(sizes: Sequence[int], trials: int) -> Report:
    """E3 / Fig. 4.  ``raw[mode][size]`` is the request->reply :class:`Stats`."""
    return _size_sweep_report(
        "fig4_request_reply", "E3 / Fig 4: request->reply time (ms, median)",
        measure_request_reply, sizes, trials, 1e3, "median_ms", 2,
    )


def stream_rates_report(total_bytes: int) -> Report:
    """E4 / Fig. 5.  ``raw[mode]`` is ``measure_stream_rates``' dict."""
    raw = {
        mode: measure_stream_rates(total_bytes, replicated=replicated)
        for mode, replicated in MODES
    }
    paper = {"standard": "7834 / 8708", "failover": "5836 / 3510"}
    return Report(
        "fig5_stream_rates", {"bytes": total_bytes},
        [{"label": mode, "metrics": {"send_kb_s": rates["send_rate_kb_s"],
                                     "recv_kb_s": rates["recv_rate_kb_s"]}}
         for mode, rates in raw.items()],
        tables=[Table(
            f"E4 / Fig 5: stream rates over {total_bytes/1e6:.0f} MB (KB/s)",
            ["mode", "send", "recv", "paper send/recv"],
            [(mode, f"{rates['send_rate_kb_s']:.0f}",
              f"{rates['recv_rate_kb_s']:.0f}", paper[mode])
             for mode, rates in raw.items()],
        )],
        raw=raw,
    )


def ftp_wan_report(sizes_kb: Sequence[float], trials: int, **cell) -> Report:
    """E5 / Fig. 6.  ``raw[mode][size_kb]`` is ``measure_ftp_rates``' dict;
    ``cell`` (``seed``) goes to every run and into the artifact's params."""
    raw: Dict[str, Dict[float, Dict]] = {mode: {} for mode, _ in MODES}
    rows, results = [], []
    for size_kb in sizes_kb:
        for mode, replicated in MODES:
            rates = raw[mode][size_kb] = measure_ftp_rates(
                size_kb, replicated, trials=trials, **cell
            )
            results.append({
                "label": f"{mode} {size_kb}KB",
                "metrics": {"get_kb_s": rates["get_kb_s"],
                            "put_kb_s": rates["put_kb_s"]},
            })
        std, fo = raw["standard"][size_kb], raw["failover"][size_kb]
        rows.append((
            size_kb, f"{std['get_kb_s']:.1f}", f"{fo['get_kb_s']:.1f}",
            f"{std['put_kb_s']:.1f}", f"{fo['put_kb_s']:.1f}",
        ))
    return Report(
        "fig6_ftp_wan", {"trials": trials, **cell}, results,
        tables=[Table(
            "E5 / Fig 6: FTP over WAN (KB/s)",
            ["fileKB", "get std", "get fo", "put std", "put fo"], rows,
        )],
        raw=raw,
    )


def failover_report(
    total_bytes: int = 800_000,
    detector_timeouts: Sequence[float] = (0.020, 0.100, 0.300),
    arp_delays: Sequence[float] = (),
    **cell,
) -> Report:
    """E6: client-visible stall vs the detector timeout, then vs the
    client's ARP-update latency, then for a secondary crash — the last two
    with the fastest (20 ms) detector.  ``cell`` (``crash_at``, ``seed``)
    goes to every run.  ``raw`` is ``[(knob, value, result), ...]`` in
    table order; the phase breakdown comes from the first run.
    """
    recovery = dict(cell, total_bytes=total_bytes, min_rto=0.05)
    raw, phases = [], None
    for timeout in detector_timeouts:
        result = measure_failover(
            detector_timeout=timeout, record_traces=(phases is None), **recovery
        )
        phases = phases or result.get("phases")
        raw.append(("detector", timeout, result))
    for delay in arp_delays:
        result = measure_failover(
            detector_timeout=0.020, client_arp_delay=delay, **recovery
        )
        raw.append(("arp-window", delay, result))
    result = measure_failover(detector_timeout=0.020, crash="secondary", **recovery)
    raw.append(("secondary crash", None, result))
    labels = [
        knob if value is None else f"{knob}={value*1e3:g}ms"
        for knob, value, _ in raw
    ]
    return Report(
        "failover_stall", {"bytes": total_bytes, **cell},
        [{"label": label, "metrics": {"stall_ms": result["stall_s"] * 1e3,
                                      "intact": int(result["intact"])}}
         for label, (_, _, result) in zip(labels, raw)],
        phases=phases,
        tables=[Table(
            "E6: failover stall", ["scenario", "stall", "stream intact"],
            [(label, f"{result['stall_s']*1e3:.1f}ms", result["intact"])
             for label, (_, _, result) in zip(labels, raw)],
        )],
        raw=raw,
    )


def ablation_report() -> Report:
    """E7 + E8: each merge rule on and off.  ``raw["min-ACK"][merging]`` and
    ``raw["min-window"][merging]`` are the ``measure_*_ablation`` dicts."""
    raw = {
        "min-ACK": {merging: measure_minack_ablation(ack_merging=merging)
                    for merging in (True, False)},
        "min-window": {merging: measure_minwindow_ablation(window_merging=merging)
                       for merging in (True, False)},
    }
    results = [
        {"label": f"min-ACK={'on' if merging else 'off'}",
         "metrics": {"survivor_bytes": r["survivor_bytes"],
                     "survivor_intact": int(r["survivor_intact"])}}
        for merging, r in raw["min-ACK"].items()
    ] + [
        {"label": f"min-window={'on' if merging else 'off'}",
         "metrics": {"completion_s": r["completion_s"],
                     "secondary_trimmed": r["secondary_trimmed"]}}
        for merging, r in raw["min-window"].items()
    ]
    return Report(
        "ablation", {}, results,
        tables=[
            Table(
                "E7: min-ACK ablation",
                ["variant", "survivor bytes", "intact", "client ok"],
                [(f"min-ACK={'on' if merging else 'OFF'}", r["survivor_bytes"],
                  r["survivor_intact"], r["client_ok"])
                 for merging, r in raw["min-ACK"].items()],
            ),
            Table(
                "E8: min-window ablation",
                ["variant", "completion", "S bytes trimmed", "intact"],
                [(f"min-window={'on' if merging else 'OFF'}",
                  f"{r['completion_s']:.3f}s", r["secondary_trimmed"], r["intact"])
                 for merging, r in raw["min-window"].items()],
            ),
        ],
        raw=raw,
    )


def chain_report(depths: Sequence[int] = (1, 2, 3, 4), **cell) -> Report:
    """E9.  ``raw[depth]`` is the server->client rate in KB/s; ``cell``
    (``total_bytes``) goes to every run and into the artifact's params."""
    raw = {depth: measure_chain_depth(depth, **cell) for depth in depths}
    base = raw[depths[0]]
    return Report(
        "chain_depth", dict(cell),
        [{"label": f"depth-{depth}", "metrics": {"rate_kb_s": rate}}
         for depth, rate in raw.items()],
        tables=[Table(
            "E9: chain depth vs server->client rate (KB/s)",
            ["replicas", "KB/s", "slowdown"],
            [(depth, f"{rate:.0f}", f"{base/rate:.2f}x")
             for depth, rate in raw.items()],
        )],
        raw=raw,
    )


def reintegration_report() -> Report:
    """E11: crash -> reintegrate -> crash again, client never notices.
    ``raw[scenario]`` is ``measure_reintegration``'s dict; the phase
    durations are the first completed reintegration's tiling."""
    raw, phases = {}, None
    for label, double in (("single failover + rejoin", False),
                          ("double failover", True)):
        result = raw[label] = measure_reintegration(
            double=double, min_rto=0.05, record_traces=(phases is None),
        )
        if phases is None:
            tiles = result.get("reintegration_breakdowns") or []
            done = [b for b in tiles if b.phases]
            if done:
                phases = done[0].durations()
    return Report(
        "reintegration", {},
        [{"label": label,
          "metrics": {
              "stall_ms": result["stall_s"] * 1e3,
              "intact": int(result["intact"]),
              "reintegrations": result["reintegrations"],
              "redundancy_restored": int(result["redundancy_restored"]),
          }} for label, result in raw.items()],
        phases=phases,
        tables=[Table(
            "E11: reintegration (crash -> rejoin -> crash again)",
            ["scenario", "worst stall", "stream intact", "rejoins",
             "redundant again"],
            [(label, f"{result['stall_s']*1e3:.1f}ms", result["intact"],
              result["reintegrations"], result["redundancy_restored"])
             for label, result in raw.items()],
        )],
        raw=raw,
    )


# ======================================================================
# The CLI subcommands over the catalogue (registered in harness/cli.py,
# which adds the --quick / --bench-dir every experiment shares)
# ======================================================================

def _add_trials(parser) -> None:
    parser.add_argument("--trials", type=int, default=None,
                        help="samples per point (default 20; 5 with --quick)")


def _trials(args) -> int:
    return args.trials if args.trials is not None else (5 if args.quick else 20)


def _sweep_sizes(quick: bool) -> List[int]:
    if quick:
        return [64, 8 * 1024, 64 * 1024, 512 * 1024]
    return FIG3_SIZES


def _tagged_quick(report: Report, args) -> Report:
    """Sweeps that ``--quick`` shortens say so in their artifact."""
    report.params["quick"] = bool(args.quick)
    return report


def setup_command(parser) -> None:
    """E1  connection setup times"""
    _add_trials(parser)
    parser.set_defaults(run=lambda args: setup_report(_trials(args)))


def fig3_command(parser) -> None:
    """E2  client->server send times (--quick: 4 of the 15 sizes)"""
    _add_trials(parser)
    parser.set_defaults(run=lambda args: _tagged_quick(
        send_time_report(_sweep_sizes(args.quick), _trials(args)), args))


def fig4_command(parser) -> None:
    """E3  server->client transfer times (--quick: 4 of the 15 sizes)"""
    _add_trials(parser)
    parser.set_defaults(run=lambda args: _tagged_quick(
        request_reply_report(_sweep_sizes(args.quick), _trials(args)), args))


def fig5_command(parser) -> None:
    """E4  long-stream send/receive rates"""
    parser.add_argument("--bytes", type=int, default=None,
                        help="stream length (default 10 MB; 4 MB with --quick)")
    parser.set_defaults(run=lambda args: stream_rates_report(
        args.bytes if args.bytes is not None
        else 4_000_000 if args.quick else 10_000_000))


def fig6_command(parser) -> None:
    """E5  FTP get/put over the WAN (--quick: the 3 smallest files)"""
    _add_trials(parser)
    parser.set_defaults(run=lambda args: ftp_wan_report(
        FIG6_FILE_SIZES_KB[: 3 if args.quick else None], _trials(args)))


def failover_command(parser) -> None:
    """E6  client-visible stall vs detector timeout, either replica crashing"""
    parser.set_defaults(run=lambda args: failover_report())


def ablation_command(parser) -> None:
    """E7/E8  the min-ACK and min-window merge rules, each on and off"""
    parser.set_defaults(run=lambda args: ablation_report())


def chain_command(parser) -> None:
    """E9  daisy-chain depth sweep"""
    parser.set_defaults(run=lambda args: chain_report())


def reintegrate_command(parser) -> None:
    """E11  crash -> rejoin -> crash again"""
    parser.set_defaults(run=lambda args: reintegration_report())
