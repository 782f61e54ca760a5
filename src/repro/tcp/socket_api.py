"""Blocking-style socket facade for simulation processes.

Application code (the echo/bulk/FTP apps, the benchmark drivers) runs as
generator processes; these wrappers expose ``yield from``-able operations
mirroring the BSD socket calls the paper's applications use::

    sock = SimSocket.connect(host, server_ip, 80)
    yield from sock.wait_connected()
    yield from sock.send_all(request)
    reply = yield from sock.recv_exactly(1024)
    yield from sock.close_and_wait()

``send_all`` returns when the last byte has been accepted by the stack's
send buffer — matching the paper's definition of "send time" in Figure 3,
*not* when the data is on the wire.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.net.addresses import Ipv4Address
from repro.sim.process import Event
from repro.tcp.connection import ConnectionReset, TcpConnection
from repro.tcp.layer import Listener


class SocketClosedError(ConnectionError):
    """Operation on a socket whose connection is gone."""


class SimSocket:
    """Wrapper around one :class:`TcpConnection`."""

    def __init__(self, conn: TcpConnection):
        self.conn = conn

    @classmethod
    def connect(
        cls,
        host: "Host",  # noqa: F821
        remote_ip: Ipv4Address,
        remote_port: int,
        local_port: Optional[int] = None,
        failover: bool = False,
        **options: Any,
    ) -> "SimSocket":
        """Open an active connection from ``host`` (SYN goes out now)."""
        conn = host.tcp.connect(
            remote_ip, remote_port, local_port=local_port, failover=failover, **options
        )
        return cls(conn)

    # -- generator-style operations (yield from) ---------------------------

    def wait_connected(self) -> Generator:
        """Block until ESTABLISHED; raises on reset/timeout."""
        yield self.conn.established_event
        return self

    def send_all(self, data: bytes) -> Generator:
        """Block until every byte has been accepted by the send buffer.

        Each successful write charges the host CPU for the syscall and the
        copy into the socket buffer — the time the paper's Figure 3
        measures ("the send call returns when the application has passed
        the last byte to the stack").

        The stack is offered a window of the caller's buffer no larger than
        the send buffer, never a copy of the unsent remainder: the only
        copy is the one :meth:`SendBuffer.write` makes of what it accepts,
        so one call moves O(len(data)) bytes however often it blocks.
        """
        host = getattr(self.conn.layer, "host", None)
        view = memoryview(data)
        window = self.conn.send_buffer.capacity
        offset = 0
        while offset < len(view):
            if self.conn.reset_received:
                raise ConnectionReset(f"{self.conn}: reset during send")
            accepted = self.conn.write(view[offset : offset + window])
            offset += accepted
            if host is not None and accepted:
                cost = (
                    host.app_write_fixed_cost
                    + host.app_write_byte_cost * accepted
                )
                if cost > 0:
                    done = Event(self.conn.sim, name="write-cost")
                    host.cpu.run(cost, done.succeed)
                    yield done
            if offset < len(view):
                yield self.conn.wait_writable()
        return len(data)

    def recv(self, max_bytes: int) -> Generator:
        """Block for at least one byte; returns b'' on orderly EOF."""
        while True:
            data = self.conn.read(max_bytes)
            if data:
                return data
            if self.conn.eof:
                return b""
            if self.conn.reset_received:
                raise ConnectionReset(f"{self.conn}: reset during recv")
            yield self.conn.wait_readable()

    def recv_exactly(self, count: int) -> Generator:
        """Block until exactly ``count`` bytes arrive (EOF is an error)."""
        chunks = []
        remaining = count
        while remaining > 0:
            data = yield from self.recv(remaining)
            if not data:
                raise SocketClosedError(
                    f"{self.conn}: EOF with {remaining} bytes outstanding"
                )
            chunks.append(data)
            remaining -= len(data)
        return b"".join(chunks)

    def recv_until_eof(self, chunk_size: int = 65536) -> Generator:
        """Drain the stream to EOF; returns everything received."""
        chunks = []
        while True:
            data = yield from self.recv(chunk_size)
            if not data:
                return b"".join(chunks)
            chunks.append(data)

    def recv_line(self, max_len: int = 4096) -> Generator:
        """Read a CRLF- or LF-terminated line (terminator stripped)."""
        buf = bytearray()
        while len(buf) < max_len:
            data = yield from self.recv(1)
            if not data:
                return bytes(buf)
            if data == b"\n":
                if buf.endswith(b"\r"):
                    del buf[-1:]
                return bytes(buf)
            buf.extend(data)
        return bytes(buf)

    def close_and_wait(self) -> Generator:
        """Half-close our side and wait for the termination handshake.

        Returns when both FINs are exchanged and acknowledged (TIME_WAIT
        counts as terminated: the layer's linger record keeps it).
        """
        self.conn.close()
        yield self.conn.terminated_event
        return None

    # -- immediate operations ------------------------------------------------

    def close(self) -> None:
        """Half-close our send side without waiting."""
        self.conn.close()

    def abort(self) -> None:
        self.conn.abort()

    @property
    def connected(self) -> bool:
        return self.conn.established_event.triggered and not self.conn.reset_received

    def __repr__(self) -> str:
        return f"SimSocket({self.conn!r})"


class ListeningSocket:
    """Wrapper around a :class:`~repro.tcp.layer.Listener`."""

    def __init__(self, listener: Listener):
        self.listener = listener

    @classmethod
    def listen(
        cls, host: "Host", port: int, backlog: int = 16, failover: bool = False  # noqa: F821
    ) -> "ListeningSocket":
        return cls(host.tcp.listen(port, backlog=backlog, failover=failover))

    def accept(self) -> Generator:
        """Block until a connection completes the handshake."""
        conn = yield self.listener.accept_queue.get()
        return SimSocket(conn)

    def close(self) -> None:
        self.listener.close()
