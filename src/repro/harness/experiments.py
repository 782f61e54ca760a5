"""One runner per paper table/figure (see DESIGN.md §4 for the index).

Every runner builds a fresh calibrated testbed, drives the workload as the
paper describes, and returns plain numbers.  The ``benchmarks/`` wrappers
print the paper's rows next to the measured ones.

Figure 3/4 sweeps use the paper's message sizes (64 B – 1 MB, powers of
two); Figure 6 uses the paper's file sizes.  Figure 5's streams are 100 MB
in the paper — runners take ``total_bytes`` so CI can use a scaled stream
(the rate is bottleneck-bound and flat beyond a few MB).
"""

from __future__ import annotations

import struct
from typing import Dict, Generator, List, Optional

from repro.apps import bulk, request_reply
from repro.apps.ftp import FileStore, FtpClient, ftp_server
from repro.apps.ftp.protocol import FTP_CONTROL_PORT, FTP_DATA_PORT
from repro.harness.metrics import Stats, rate_kb_s, summarize
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
