"""Bulk stream workloads — the Figure 3 and Figure 5 drivers.

``pattern_bytes`` generates the deterministic test payload; both replicas
regenerate it identically, and receivers verify integrity against it.

Timing definitions follow the paper:

* *send time* (Fig. 3): from the first ``send()`` call until the stack has
  accepted the last byte — the send call returning, not wire completion;
* *stream rate* (Fig. 5): payload bytes divided by the time from first
  send to the receiver application consuming the last byte.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Generator

from repro.net.host import Host
from repro.tcp.socket_api import ListeningSocket, SimSocket

_PERIOD = 2048


@lru_cache(maxsize=None)
def _pattern_period(salt_byte: int) -> bytes:
    """One period of the pattern; only ``salt mod 256`` reaches the bytes,
    so the cache holds at most 256 periods (512 KiB)."""
    return bytes((i * 31 + salt_byte * 17 + (i >> 8)) & 0xFF for i in range(_PERIOD))


def pattern_bytes(size: int, salt: int = 0) -> bytes:
    """Deterministic pseudo-random-ish payload of ``size`` bytes."""
    period = _pattern_period(salt & 0xFF)
    reps, rem = divmod(size, _PERIOD)
    return period * reps + period[:rem]


def sink_server(host: Host, port: int, expected: int, results: dict) -> Generator:
    """Accept one connection, drain ``expected`` bytes, record timings."""
    listening = ListeningSocket.listen(host, port)
    sock = yield from listening.accept()
    received = 0
    while received < expected:
        data = yield from sock.recv(65536)
        if not data:
            break
        received += len(data)
    results["received"] = received
    results["t_received_last"] = host.sim.now
    yield from sock.close_and_wait()
    listening.close()


def source_server(host: Host, port: int, size: int, salt: int = 0) -> Generator:
    """Accept one connection; on a 4-byte request, stream ``size`` bytes."""
    listening = ListeningSocket.listen(host, port)
    sock = yield from listening.accept()
    request = yield from sock.recv_exactly(4)
    assert request == b"PULL", request
    yield from sock.send_all(pattern_bytes(size, salt))
    yield from sock.close_and_wait()
    listening.close()


def push_client(client: Host, server_ip, port: int, size: int, results: dict,
                salt: int = 0) -> Generator:
    """Client→server stream: connect, send ``size`` bytes, half-close.

    Records ``t_connected``, ``t_send_done`` (Fig. 3's send time endpoint)
    and ``t_closed``.
    """
    sock = SimSocket.connect(client, server_ip, port)
    yield from sock.wait_connected()
    results["t_connected"] = client.sim.now
    yield from sock.send_all(pattern_bytes(size, salt))
    results["t_send_done"] = client.sim.now
    yield from sock.close_and_wait()
    results["t_closed"] = client.sim.now


def pull_client(client: Host, server_ip, port: int, size: int, results: dict,
                salt: int = 0, verify: bool = True) -> Generator:
    """Server→client stream: send a 4-byte request, read ``size`` bytes.

    Records ``t_connected``, ``t_request_sent`` and ``t_last_byte`` —
    Fig. 4 measures ``t_last_byte - t_request_sent`` (client clock).
    """
    sock = SimSocket.connect(client, server_ip, port)
    yield from sock.wait_connected()
    results["t_connected"] = client.sim.now
    results["t_request_sent"] = client.sim.now
    yield from sock.send_all(b"PULL")
    data = yield from sock.recv_exactly(size)
    results["t_last_byte"] = client.sim.now
    if verify:
        results["intact"] = data == pattern_bytes(size, salt)
    yield from sock.close_and_wait()
