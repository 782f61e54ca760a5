"""Slot-array flow table for the virtual-service dispatcher.

Every inbound segment at the dispatcher does one flow lookup, so the
table keeps no per-flow object: a flow id resolves (one dict probe) to a
stable integer slot, and the slot indexes ``_shard_ids`` / ``_last_seen``
arrays that the datapath reads and writes directly (:meth:`slot_of` /
:meth:`shard_at` / :meth:`touch` / :meth:`pin` / :meth:`reassign`).
Freed slots recycle through a free list, so flow churn does not grow the
arrays.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: (client ip value, client port) — the dispatcher-side flow identity.
FlowId = Tuple[int, int]


class FlowTable:
    """Slot-array flow store; see module docstring."""

    __slots__ = ("_index", "_shard_ids", "_last_seen", "_free")

    def __init__(self) -> None:
        self._index: Dict[FlowId, int] = {}
        self._shard_ids: List[str] = []
        self._last_seen: List[float] = []
        self._free: List[int] = []

    def __len__(self) -> int:
        return len(self._index)

    def slot_of(self, flow_id: FlowId) -> int:
        """Slot of ``flow_id``, or -1 if the flow is not pinned."""
        return self._index.get(flow_id, -1)

    def shard_at(self, slot: int) -> str:
        return self._shard_ids[slot]

    def last_seen_at(self, slot: int) -> float:
        """Last-activity timestamp of an occupied slot."""
        return self._last_seen[slot]

    def touch(self, slot: int, now: float) -> None:
        self._last_seen[slot] = now

    def reassign(self, slot: int, shard_id: str, now: float) -> None:
        self._shard_ids[slot] = shard_id
        self._last_seen[slot] = now

    def pin(self, flow_id: FlowId, shard_id: str, now: float) -> int:
        """Insert a new flow; returns its slot."""
        if self._free:
            slot = self._free.pop()
            self._shard_ids[slot] = shard_id
            self._last_seen[slot] = now
        else:
            slot = len(self._shard_ids)
            self._shard_ids.append(shard_id)
            self._last_seen.append(now)
        self._index[flow_id] = slot
        return slot

    def evict_idle(self, cutoff: float) -> int:
        """Drop flows last seen before ``cutoff``; returns how many."""
        stale = [
            flow_id
            for flow_id, slot in self._index.items()
            if self._last_seen[slot] < cutoff
        ]
        # A freed slot keeps its stale shard/last_seen until pin() reuses it.
        for flow_id in stale:
            self._free.append(self._index.pop(flow_id))
        return len(stale)
