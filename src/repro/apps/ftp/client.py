"""FTP client: scripted sessions for the Fig. 6 experiment.

``get``/``put`` time the transfer the way an FTP client reports rates: from
issuing the RETR/STOR command to the data connection closing, and they
return (bytes, seconds) so the harness can compute KB/s.
"""

from __future__ import annotations

from typing import Generator, Optional, Tuple

from repro.apps.ftp.protocol import FTP_CONTROL_PORT, format_port_command
from repro.net.addresses import Ipv4Address
from repro.net.host import Host
from repro.tcp.socket_api import ListeningSocket, SimSocket


class FtpError(ConnectionError):
    """Unexpected reply on the control connection."""


class FtpClient:
    """Active-mode FTP client bound to one simulated host."""

    def __init__(self, host: Host, server_ip: Ipv4Address):
        self.host = host
        self.server_ip = server_ip
        self.control: Optional[SimSocket] = None

    # -- session management -------------------------------------------------

    def connect_and_login(self) -> Generator:
        """Open the control connection and log in anonymously."""
        self.control = SimSocket.connect(self.host, self.server_ip, FTP_CONTROL_PORT)
        yield from self.control.wait_connected()
        yield from self._expect("220")
        yield from self._command("USER anonymous", "331")
        yield from self._command("PASS repro", "230")

    def quit(self) -> Generator:
        if self.control is not None:
            yield from self._command("QUIT", "221")
            yield from self.control.close_and_wait()
            self.control = None

    # -- transfers ------------------------------------------------------------

    def get(self, name: str) -> Generator:
        """RETR ``name``; returns (data, transfer_seconds)."""
        listener, port = self._fresh_data_listener()
        yield from self._command(
            format_port_command(self._local_ip(), port), "200"
        )
        started = self.host.sim.now
        yield from self._command(f"RETR {name}", "150")
        data_sock = yield from listener.accept()
        data = yield from data_sock.recv_until_eof()
        yield from data_sock.close_and_wait()
        elapsed = self.host.sim.now - started
        listener.close()
        yield from self._expect("226")
        return data, elapsed

    def put(self, name: str, content: bytes) -> Generator:
        """STOR ``name``; returns transfer_seconds.

        As in the paper's client-reported put rates, timing ends when the
        client has pushed the last byte and closed its side — the 226 from
        the server is read afterwards.
        """
        listener, port = self._fresh_data_listener()
        yield from self._command(
            format_port_command(self._local_ip(), port), "200"
        )
        yield from self._command(f"STOR {name}", "150")
        data_sock = yield from listener.accept()
        # The paper's client-reported put rates time the data write loop
        # only (send() returns when the stack buffers the bytes) — a 0.2 KB
        # put at "512 KB/s" is below one WAN RTT, so neither the 150
        # round-trip nor the close handshake can be inside their interval.
        started = self.host.sim.now
        yield from data_sock.send_all(content)
        elapsed = max(self.host.sim.now - started, 1e-9)
        yield from data_sock.close_and_wait()
        listener.close()
        yield from self._expect("226")
        return elapsed

    def listing(self) -> Generator:
        listener, port = self._fresh_data_listener()
        yield from self._command(
            format_port_command(self._local_ip(), port), "200"
        )
        yield from self._command("LIST", "150")
        data_sock = yield from listener.accept()
        data = yield from data_sock.recv_until_eof()
        yield from data_sock.close_and_wait()
        listener.close()
        yield from self._expect("226")
        return data.decode("ascii")

    # -- internals --------------------------------------------------------------

    def _fresh_data_listener(self) -> Tuple[ListeningSocket, int]:
        port = self.host.tcp.allocate_ephemeral_port()
        return ListeningSocket.listen(self.host, port), port

    def _local_ip(self) -> Ipv4Address:
        return self.host.ip.primary_address()

    def _command(self, line: str, expect_code: str) -> Generator:
        yield from self.control.send_all(line.encode("ascii") + b"\r\n")
        reply = yield from self._expect(expect_code)
        return reply

    def _expect(self, code: str) -> Generator:
        line = yield from self.control.recv_line()
        text = line.decode("ascii")
        if not text.startswith(code):
            raise FtpError(f"expected {code}, got {text!r}")
        return text
