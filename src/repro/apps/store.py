"""The paper's motivating example: a deterministic on-line store (§1).

"An on-line store is an example of a deterministic service.  Unless two
customers compete for the last remaining item, each client will get a
well-defined response to a browse or purchase request — independent of the
fact that the server implementation uses an independent thread per
client."

A tiny line-oriented protocol::

    BROWSE <sku>         -> ITEM <sku> <price> <stock> | NOITEM <sku>
    BUY <sku> <qty>      -> SOLD <sku> <qty> <total> | OUT <sku>
    QUIT                 -> BYE

Both replicas start from the same catalogue and apply the same requests in
the same per-connection order, so their replies are byte-identical — the
determinism the bridge's payload matching relies on.  The test suite also
runs an intentionally *non*-deterministic variant to show the bridge
detecting divergence.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from repro.net.host import Host
from repro.tcp.socket_api import ListeningSocket, SimSocket

CATALOGUE: Tuple[Tuple[str, int, int], ...] = (
    ("anvil", 1999, 12),
    ("rocket-skates", 7999, 3),
    ("tnt-crate", 4999, 42),
    ("bird-seed", 399, 100),
)


class Store:
    """In-memory catalogue with deterministic operations."""

    def __init__(self) -> None:
        self.items: Dict[str, List[int]] = {
            sku: [price, stock] for sku, price, stock in CATALOGUE
        }
        self.orders: List[Tuple[str, int]] = []

    def browse(self, sku: str) -> str:
        entry = self.items.get(sku)
        if entry is None:
            return f"NOITEM {sku}"
        price, stock = entry
        return f"ITEM {sku} {price} {stock}"

    def buy(self, sku: str, qty: int) -> str:
        entry = self.items.get(sku)
        if entry is None:
            return f"NOITEM {sku}"
        price, stock = entry
        if stock < qty:
            return f"OUT {sku}"
        entry[1] = stock - qty
        self.orders.append((sku, qty))
        return f"SOLD {sku} {qty} {price * qty}"

    def handle(self, line: str) -> Optional[str]:
        parts = line.strip().split()
        if not parts:
            return "ERR empty"
        verb = parts[0].upper()
        if verb == "BROWSE" and len(parts) == 2:
            return self.browse(parts[1])
        if verb == "BUY" and len(parts) == 3 and parts[2].isdigit():
            return self.buy(parts[1], int(parts[2]))
        if verb == "QUIT":
            return None
        return f"ERR bad-request {line.strip()}"


def store_server(host: Host, port: int = 8080) -> Generator:
    """Serve the store protocol; one process per connection."""
    store = Store()
    listening = ListeningSocket.listen(host, port)
    served = 0
    while True:
        sock = yield from listening.accept()
        host.spawn(_store_connection(sock, store), f"store-conn-{served}")
        served += 1


def _store_connection(sock: SimSocket, store: Store) -> Generator:
    while True:
        line = yield from sock.recv_line()
        if not line:
            break
        reply = store.handle(line.decode("ascii", "replace"))
        if reply is None:
            yield from sock.send_all(b"BYE\r\n")
            break
        yield from sock.send_all(reply.encode("ascii") + b"\r\n")
    yield from sock.close_and_wait()


def shopping_session(
    client: Host, server_ip, port: int, script: List[str], results: dict
) -> Generator:
    """Run a scripted session; collects every reply line."""
    sock = SimSocket.connect(client, server_ip, port)
    yield from sock.wait_connected()
    replies: List[str] = []
    for command in script:
        yield from sock.send_all(command.encode("ascii") + b"\r\n")
        line = yield from sock.recv_line()
        replies.append(line.decode("ascii"))
        if command.upper() == "QUIT":
            break
    results["replies"] = replies
    yield from sock.close_and_wait()
    return replies
