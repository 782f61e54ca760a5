"""Per-host TCB state: the connection and linger tables.

Both answer port questions ("is this local port taken?") without walking
every record, so an ephemeral allocation does not scan the host's
connections and linger records.

:class:`ConnectionTable` is a key → TCB dict plus a per-port reference
count, so ``port_in_use`` is one probe instead of a table scan.

:class:`LingerTable` holds the TIME_WAIT-style records behind the same
mapping interface, with two auxiliary indexes:

* per-port buckets (insertion-ordered dicts, not sets — iteration must
  stay deterministic) so "is this port still cooling down toward that
  remote?" reads one small bucket instead of the whole table;
* an append-only expiry queue so pruning pops expired heads in O(1)
  amortised instead of re-scanning every record per allocation.  A
  record that was deleted or re-added keeps a stale queue entry; the
  prune loop validates each popped entry against the live table and
  skips strays, and every *query* checks the record's own expiry, so a
  stale queue never changes an answer.

Both tables are ``MutableMapping``s over 4-tuple keys that iterate in
insertion order: ephemeral allocation and takeover rebinding walk them,
and seeded runs replay byte-for-byte only if that order holds.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator, MutableMapping
from typing import TYPE_CHECKING, Deque, Dict, Optional, Tuple

from repro.net.addresses import Ipv4Address

if TYPE_CHECKING:
    from repro.tcp.connection import TcpConnection

#: (local IP, local port, remote IP, remote port)
ConnKey = Tuple[Ipv4Address, int, Ipv4Address, int]

#: (expiry, snd_nxt, rcv_nxt, failover) — what a linger ACK needs to
#: echo, plus whether the closed connection was a failover one (so an IP
#: takeover can re-home its record along with the live TCBs).
LingerEntry = Tuple[float, int, int, bool]


class ConnectionTable(MutableMapping[ConnKey, "TcpConnection"]):
    """TCB store with O(1) port-occupancy queries."""

    __slots__ = ("_conns", "_port_refs")

    def __init__(self) -> None:
        self._conns: Dict[ConnKey, "TcpConnection"] = {}
        self._port_refs: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._conns)

    def __iter__(self) -> Iterator[ConnKey]:
        return iter(self._conns)

    def __getitem__(self, key: ConnKey) -> "TcpConnection":
        return self._conns[key]

    def __setitem__(self, key: ConnKey, conn: "TcpConnection") -> None:
        if key not in self._conns:
            port = key[1]
            self._port_refs[port] = self._port_refs.get(port, 0) + 1
        self._conns[key] = conn

    def __delitem__(self, key: ConnKey) -> None:
        del self._conns[key]
        port = key[1]
        refs = self._port_refs[port] - 1
        if refs:
            self._port_refs[port] = refs
        else:
            del self._port_refs[port]

    def clear(self) -> None:
        self._conns.clear()
        self._port_refs.clear()

    def port_in_use(self, port: int) -> bool:
        return port in self._port_refs

    def count_ports_in_range(self, lo: int, hi: int) -> int:
        """Connections whose local port falls in ``[lo, hi)`` (for the
        exhaustion diagnostic; iterates distinct ports, not TCBs)."""
        return sum(refs for port, refs in self._port_refs.items() if lo <= port < hi)


class LingerTable(MutableMapping[ConnKey, LingerEntry]):
    """TIME_WAIT-style records with per-port buckets and lazy expiry."""

    __slots__ = ("_entries", "_by_port", "_expiry")

    def __init__(self) -> None:
        self._entries: Dict[ConnKey, LingerEntry] = {}
        self._by_port: Dict[int, Dict[ConnKey, None]] = {}
        self._expiry: Deque[Tuple[float, ConnKey]] = deque()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ConnKey]:
        return iter(self._entries)

    def __getitem__(self, key: ConnKey) -> LingerEntry:
        return self._entries[key]

    def __setitem__(self, key: ConnKey, entry: LingerEntry) -> None:
        if key not in self._entries:
            self._by_port.setdefault(key[1], {})[key] = None
        self._entries[key] = entry
        self._expiry.append((entry[0], key))

    def __delitem__(self, key: ConnKey) -> None:
        del self._entries[key]
        bucket = self._by_port[key[1]]
        del bucket[key]
        if not bucket:
            del self._by_port[key[1]]

    def clear(self) -> None:
        self._entries.clear()
        self._by_port.clear()
        self._expiry.clear()

    def prune(self, now: float) -> None:
        """Drop records whose window has passed.  O(1) amortised: each
        queue entry is popped exactly once over the table's lifetime."""
        queue = self._expiry
        entries = self._entries
        while queue and queue[0][0] <= now:
            _, key = queue.popleft()
            entry = entries.get(key)
            # Skip strays: the record was deleted, or re-added with a
            # later expiry (the re-add queued its own entry).
            if entry is not None and now >= entry[0]:
                del self[key]

    def port_blocked(
        self,
        port: int,
        now: float,
        remote_ip: Optional[Ipv4Address] = None,
        remote_port: Optional[int] = None,
    ) -> bool:
        """Is ``port`` still cooling down (toward ``remote``, if given)?"""
        bucket = self._by_port.get(port)
        if not bucket:
            return False
        for key in bucket:
            if now >= self._entries[key][0]:
                continue  # expired, awaiting prune
            if remote_ip is None or remote_port is None:
                return True
            if key[2] == remote_ip and key[3] == remote_port:
                return True
        return False

    def count_ports_in_range(self, lo: int, hi: int) -> int:
        return sum(
            len(bucket) for port, bucket in self._by_port.items() if lo <= port < hi
        )
