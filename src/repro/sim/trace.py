"""Structured event tracing.

Network layers and bridges emit :class:`TraceRecord` objects through a shared
:class:`Tracer`.  Tests assert on traces (e.g. "no RST reached the client",
"the bridge emitted exactly one empty ACK"), and the benchmark harness uses
them to compute wire-level statistics.  Tracing is cheap when nothing is
recorded or subscribed: emit sites pass renderers, not rendered strings (see
:meth:`Tracer.emit`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional


def _render_value(value: Any) -> str:
    """Render a detail value compactly: wire objects (frames, datagrams)
    collapse to ``<Type NNNb>`` so a dump never expands payload bytes."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return str(value)
    wire_size = getattr(value, "wire_size", None)
    if wire_size is not None:
        return f"<{type(value).__name__} {wire_size}B>"
    text = str(value)
    return text if len(text) <= 64 else text[:61] + "..."


@dataclass(frozen=True)
class TraceRecord:
    """One traced occurrence.

    ``category`` is a dotted topic such as ``"eth.tx"``, ``"tcp.rtx"`` or
    ``"bridge.merge"``; ``node`` names the emitting host; ``detail`` carries
    free-form structured fields.
    """

    time: float
    category: str
    node: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        parts = " ".join(f"{k}={_render_value(v)}" for k, v in self.detail.items())
        return f"[{self.time:.6f}] {self.node} {self.category} {parts}"


class Tracer:
    """Collects trace records and fans them out to subscribers.

    ``max_records`` bounds memory for long chaos/benchmark runs: when
    set, ``records`` is a ring buffer keeping only the most recent
    records.  Category counts (:meth:`count`) stay exact either way —
    they are maintained independently of the ring.
    """

    def __init__(self, record: bool = True, max_records: Optional[int] = None):
        self._record = record
        self.max_records = max_records
        # A plain list when unbounded (the common case tests index and
        # compare against), a ring deque when bounded.
        self.records = deque(maxlen=max_records) if max_records is not None else []
        self._subscribers: List[Callable[[TraceRecord], None]] = []
        self._category_counts: Dict[str, int] = {}

    def emit(self, time: float, category: str, node: str, **detail: Any) -> None:
        """Count the occurrence; build a record only if somebody observes.

        A callable detail value is a deferred renderer (``conn=self.__repr__``,
        ``dst=dst_ip.__str__``, a lambda around an f-string).  It is called
        here, at emit time, iff a recorder or a subscriber exists, so a
        record always holds the snapshot the caller would have formatted
        itself and an unobserved emit costs one dict update.
        """
        counts = self._category_counts
        counts[category] = counts.get(category, 0) + 1
        if not self._record and not self._subscribers:
            return
        for key, value in detail.items():
            if callable(value):
                detail[key] = value()
        record = TraceRecord(time=time, category=category, node=node, detail=detail)
        if self._record:
            self.records.append(record)
        for subscriber in self._subscribers:
            subscriber(record)

    def subscribe(self, callback: Callable[[TraceRecord], None]) -> None:
        self._subscribers.append(callback)

    def count(self, category: str) -> int:
        """Number of records emitted for ``category`` (recorded or not)."""
        return self._category_counts.get(category, 0)

    def select(
        self,
        category: Optional[str] = None,
        node: Optional[str] = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
    ) -> List[TraceRecord]:
        """Filter recorded records by category prefix, node, and predicate."""

        def keep(record: TraceRecord) -> bool:
            if category is not None and not record.category.startswith(category):
                return False
            if node is not None and record.node != node:
                return False
            if predicate is not None and not predicate(record):
                return False
            return True

        return [r for r in self.records if keep(r)]

    def clear(self) -> None:
        self.records.clear()
        self._category_counts.clear()

    def dump(self, categories: Optional[Iterable[str]] = None) -> str:
        """Human-readable dump, optionally restricted to category prefixes."""
        prefixes = tuple(categories) if categories else None
        lines = [
            str(r)
            for r in self.records
            if prefixes is None or r.category.startswith(prefixes)
        ]
        return "\n".join(lines)
