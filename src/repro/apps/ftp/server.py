"""FTP server: control connection handler and active-mode data transfers.

The server always opens the data connection itself, from local port 20
(``FTP_DATA_PORT``) to the address/port the client supplied with PORT —
when run replicated this is precisely §7.2's server-initiated connection
establishment: both replicas issue the ``connect()``, the secondary's SYN
is diverted, and the primary bridge emits one merged SYN to the client.
"""

from __future__ import annotations

from typing import Generator

from repro.apps.ftp.protocol import (
    FTP_CONTROL_PORT,
    FTP_DATA_PORT,
    FileStore,
    parse_command,
    parse_port_argument,
)
from repro.net.host import Host
from repro.tcp.socket_api import ListeningSocket, SimSocket


def ftp_server(host: Host, store: FileStore) -> Generator:
    """Accept control connections; one session process per client."""
    listening = ListeningSocket.listen(host, FTP_CONTROL_PORT)
    sessions = 0
    while True:
        control = yield from listening.accept()
        host.spawn(_session(host, control, store), f"ftp-session-{sessions}")
        sessions += 1


def _session(host: Host, control: SimSocket, store: FileStore) -> Generator:
    yield from _reply(control, "220 repro FTP service ready")
    data_target = None
    logged_in = False
    while True:
        line = yield from control.recv_line()
        if not line:
            break
        verb, argument = parse_command(line)
        if verb == "USER":
            yield from _reply(control, "331 password required")
        elif verb == "PASS":
            logged_in = True
            yield from _reply(control, "230 logged in")
        elif verb == "PORT":
            try:
                data_target = parse_port_argument(argument)
            except ValueError:
                yield from _reply(control, "501 bad PORT")
                continue
            yield from _reply(control, "200 PORT accepted")
        elif verb == "RETR":
            if not _ready(logged_in, data_target):
                yield from _reply(control, "503 bad sequence")
                continue
            content = store.get(argument)
            if content is None:
                yield from _reply(control, f"550 {argument}: no such file")
                continue
            yield from _reply(control, f"150 opening data connection ({len(content)} bytes)")
            ok = yield from _send_file(host, data_target, content)
            data_target = None
            yield from _reply(control, "226 transfer complete" if ok else "426 transfer failed")
        elif verb == "STOR":
            if not _ready(logged_in, data_target):
                yield from _reply(control, "503 bad sequence")
                continue
            yield from _reply(control, "150 opening data connection")
            data = yield from _receive_file(host, data_target)
            data_target = None
            if data is None:
                yield from _reply(control, "426 transfer failed")
            else:
                store.put(argument, data)
                yield from _reply(control, f"226 transfer complete ({len(data)} bytes)")
        elif verb == "LIST":
            if not _ready(logged_in, data_target):
                yield from _reply(control, "503 bad sequence")
                continue
            yield from _reply(control, "150 here comes the directory listing")
            ok = yield from _send_file(host, data_target, store.listing().encode("ascii"))
            data_target = None
            yield from _reply(control, "226 transfer complete" if ok else "426 transfer failed")
        elif verb == "QUIT":
            yield from _reply(control, "221 goodbye")
            break
        else:
            yield from _reply(control, f"502 {verb} not implemented")
    yield from control.close_and_wait()


def _ready(logged_in: bool, data_target) -> bool:
    return logged_in and data_target is not None


def _reply(control: SimSocket, line: str) -> Generator:
    yield from control.send_all(line.encode("ascii") + b"\r\n")


def _open_data_connection(host: Host, data_target) -> Generator:
    ip, port = data_target
    sock = SimSocket.connect(host, ip, port, local_port=FTP_DATA_PORT)
    yield from sock.wait_connected()
    return sock


def _send_file(host: Host, data_target, content: bytes) -> Generator:
    try:
        sock = yield from _open_data_connection(host, data_target)
        yield from sock.send_all(content)
        yield from sock.close_and_wait()
        return True
    except ConnectionError:
        return False


def _receive_file(host: Host, data_target) -> Generator:
    try:
        sock = yield from _open_data_connection(host, data_target)
        data = yield from sock.recv_until_eof()
        yield from sock.close_and_wait()
        return data
    except ConnectionError:
        return None
