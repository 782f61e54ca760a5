"""Echo service: replies with a deterministic transform of each request.

The simplest deterministic service — used by the quickstart example and by
many integration tests.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.net.host import Host
from repro.tcp.socket_api import ListeningSocket, SimSocket

#: What the server puts before each reply by default.
ECHO_PREFIX = b"echo:"


def echo_server(host: Host, port: int = 7, prefix: bytes = ECHO_PREFIX,
                max_connections: Optional[int] = None) -> Generator:
    """Serve echo connections; each connection gets its own process."""
    listening = ListeningSocket.listen(host, port)
    served = 0
    while max_connections is None or served < max_connections:
        sock = yield from listening.accept()
        host.spawn(_echo_connection(sock, prefix), f"echo-conn-{served}")
        served += 1
    listening.close()


def _echo_connection(sock: SimSocket, prefix: bytes) -> Generator:
    while True:
        data = yield from sock.recv(65536)
        if not data:
            break
        yield from sock.send_all(prefix + data)
    yield from sock.close_and_wait()


def echo_once(client: Host, server_ip, port: int, message: bytes) -> Generator:
    """Connect, send one message, read the default-prefixed reply, close.

    Returns the reply bytes.
    """
    sock = SimSocket.connect(client, server_ip, port)
    yield from sock.wait_connected()
    yield from sock.send_all(message)
    reply = yield from sock.recv_exactly(len(ECHO_PREFIX) + len(message))
    yield from sock.close_and_wait()
    return reply
