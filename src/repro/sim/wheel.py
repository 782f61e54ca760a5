"""Hierarchical timer wheel: the selectable, non-default scheduler backend.

Deadlines are quantised onto a 15.625 ms tick axis (64 ticks per
simulated second) and stored in four levels of 256 slots each.  Level
``L`` slots are ``256**L`` ticks wide, so the wheel spans ``256**4``
ticks (over two simulated years) of lookahead; entries beyond that live
in a small overflow heap and are pulled into the wheel as the cursor
crosses into their top-level window.

Why a wheel: scheduling and cancelling are O(1) (compute a slot index,
append / set a flag), and cancelled timers are disposed of **in bulk**
when their slot is cascaded or scanned — the retransmission-timer churn
that dominates cluster-scale runs never pays a per-entry heap pop.

Observational equivalence with the heap backend is exact, not
approximate:

* quantisation only *groups* entries (``tick = floor(deadline * 64)``
  is monotone in the deadline), it never reorders them — within the
  finest-level slot entries are sorted by ``(deadline, insertion
  order)``, the heap's own tie-break, and fire with their exact float
  deadlines;
* a slot at a smaller tick can never hold a later deadline than a slot
  at a larger tick, so inter-slot order is deadline order.

``tests/differential/test_scheduler_equivalence.py`` drives randomised
schedule/cancel/advance programs against both backends and asserts
identical firing sequences; ``DESIGN.md`` §10 documents the granularity
and overflow design.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import List, Optional

from repro.sim.engine import Entry, EventQueue

#: Ticks per simulated second.  Only monotonicity of ``deadline -> tick``
#: matters for correctness (entries keep their exact float deadlines and
#: are sorted within a slot); the value trades slot occupancy against
#: cascade depth.  64 is a power of two, so ``deadline * 64`` is exact
#: for binary floats, and it puts retransmission-scale delays (tens to
#: hundreds of milliseconds) in the level-0 window (4 s).
TICKS_PER_SECOND = 64.0

_SLOT_BITS = 8
_SLOTS = 1 << _SLOT_BITS
_MASK = _SLOTS - 1
_LEVELS = 4
#: An entry is stored at the smallest level whose *parent window* it
#: shares with the cursor (``tick >> _WINDOW_BITS[L] == position >>
#: _WINDOW_BITS[L]``); entries outside the top-level window overflow to
#: the heap.  Shared-window placement (rather than delta-based) keeps a
#: hard invariant: no ring slot ever holds an entry from a *future
#: revolution* of its ring, so slot scans never need to disambiguate
#: wrapped entries.
_WINDOW_BITS = tuple(_SLOT_BITS * (level + 1) for level in range(_LEVELS))


class TimerWheel(EventQueue):
    """Four-level hierarchical timer wheel with an overflow heap."""

    backend = "wheel"

    def __init__(self) -> None:
        super().__init__()
        self._rings: List[List[List[Entry]]] = [
            [[] for _ in range(_SLOTS)] for _ in range(_LEVELS)
        ]
        #: Alias for the level-0 ring — the push hot path's common case.
        self._ring0 = self._rings[0]
        #: Entries stored per level (cancelled ones included).
        self._level_counts = [0] * _LEVELS
        #: Far-future entries, a heap ordered by (deadline, insertion order).
        self._overflow: List[Entry] = []
        #: Entries of the slot at ``_cursor``, sorted; ``_ready_pos`` is the
        #: consumption point.  Late arrivals for already-passed ticks are
        #: insorted into the unconsumed suffix.
        self._ready: List[Entry] = []
        self._ready_pos = 0
        #: The last tick whose slot has been loaded into ``_ready``.  Every
        #: entry stored in the rings has a strictly larger tick.
        self._cursor = -1
        #: Total stored entries (rings + overflow + unconsumed ready).
        self._count = 0

    def __len__(self) -> int:
        return self._count

    # ------------------------------------------------------------------
    # EventQueue interface
    # ------------------------------------------------------------------

    def push(self, entry: Entry) -> None:
        # Hot path: placement is inlined (see _place for the shared-window
        # rationale) with the level-0 test first — almost every sim timer
        # lands in the current 4-second window.
        self._count += 1
        cursor = self._cursor
        tick = int(entry[0] * TICKS_PER_SECOND)
        if tick > cursor:
            position = cursor + 1
            if tick >> 8 == position >> 8:
                self._ring0[tick & 255].append(entry)
                self._level_counts[0] += 1
            elif tick >> 16 == position >> 16:
                self._rings[1][(tick >> 8) & 255].append(entry)
                self._level_counts[1] += 1
            elif tick >> 24 == position >> 24:
                self._rings[2][(tick >> 16) & 255].append(entry)
                self._level_counts[2] += 1
            elif tick >> 32 == position >> 32:
                self._rings[3][(tick >> 24) & 255].append(entry)
                self._level_counts[3] += 1
            else:
                heapq.heappush(self._overflow, entry)
            return
        # The cursor already passed this tick (it can run ahead of the
        # clock when `run(until=...)` stops short of a loaded slot, or
        # when a callback schedules into the tick being drained).  The
        # entry still sorts after everything consumed so far — splice
        # it into the unconsumed suffix of the ready list.
        insort(self._ready, entry, lo=self._ready_pos)

    def peek(self) -> Optional[Entry]:
        while True:
            ready = self._ready
            pos = self._ready_pos
            size = len(ready)
            while pos < size:
                entry = ready[pos]
                if entry[2]._cancelled:
                    pos += 1
                    self._count -= 1
                    self.cancelled_pending -= 1
                    continue
                self._ready_pos = pos
                return entry
            self._ready_pos = pos
            if not self._advance():
                return None

    def pop(self) -> Entry:
        # Fast path: the head was just peeked and is still live.
        ready = self._ready
        pos = self._ready_pos
        if pos < len(ready):
            entry = ready[pos]
            if not entry[2]._cancelled:
                self._ready_pos = pos + 1
                self._count -= 1
                return entry
        entry = self.peek()
        if entry is None:
            raise IndexError("pop from an empty timer wheel")
        self._ready_pos += 1
        self._count -= 1
        return entry

    def compact(self) -> None:
        """Sweep cancelled entries out of every slot, the overflow heap and
        the ready suffix.  Triggered by the shared ratio policy, so the
        total work stays proportional to the number of cancellations."""
        self.compaction_work += self._count
        dropped_total = 0
        counts = self._level_counts
        for level in range(_LEVELS):
            ring = self._rings[level]
            dropped = 0
            for index in range(_SLOTS):
                slot = ring[index]
                if slot:
                    kept = [e for e in slot if not e[2]._cancelled]
                    if len(kept) != len(slot):
                        dropped += len(slot) - len(kept)
                        ring[index] = kept
            counts[level] -= dropped
            dropped_total += dropped
        if self._overflow:
            kept = [e for e in self._overflow if not e[2]._cancelled]
            if len(kept) != len(self._overflow):
                dropped_total += len(self._overflow) - len(kept)
                heapq.heapify(kept)
                self._overflow = kept
        suffix = self._ready[self._ready_pos:]
        if suffix:
            kept = [e for e in suffix if not e[2]._cancelled]
            if len(kept) != len(suffix):
                dropped_total += len(suffix) - len(kept)
            self._ready = kept  # already sorted; filtering preserves order
            self._ready_pos = 0
        self._count -= dropped_total
        self.cancelled_pending = 0
        self.compactions += 1

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------

    def _place(self, entry: Entry, tick: int) -> None:
        """Store an entry at the smallest level whose parent window also
        contains the next position.  As the cursor advances (it never
        passes a stored entry) the shared-window property is monotone, so
        every ring slot only ever holds current-revolution entries."""
        position = self._cursor + 1
        if tick >> _WINDOW_BITS[0] == position >> _WINDOW_BITS[0]:
            level = 0
        elif tick >> _WINDOW_BITS[1] == position >> _WINDOW_BITS[1]:
            level = 1
        elif tick >> _WINDOW_BITS[2] == position >> _WINDOW_BITS[2]:
            level = 2
        elif tick >> _WINDOW_BITS[3] == position >> _WINDOW_BITS[3]:
            level = 3
        else:
            heapq.heappush(self._overflow, entry)
            return
        self._rings[level][(tick >> (_SLOT_BITS * level)) & _MASK].append(entry)
        self._level_counts[level] += 1

    # ------------------------------------------------------------------
    # advancing the cursor
    # ------------------------------------------------------------------

    def _advance(self) -> bool:
        """Move the cursor to the next occupied tick and load its entries
        (sorted, dead ones dropped) into the ready list.  Returns False
        when nothing is stored anywhere."""
        self._ready = []
        self._ready_pos = 0
        counts = self._level_counts
        while True:
            if self._overflow:
                if counts[0] + counts[1] + counts[2] + counts[3] == 0:
                    # Nothing in the rings: jump straight to the first
                    # far-future entry (never backwards).
                    first_tick = int(self._overflow[0][0] * TICKS_PER_SECOND)
                    if first_tick - 1 > self._cursor:
                        self._cursor = first_tick - 1
                self._drain_overflow()
            elif counts[0] + counts[1] + counts[2] + counts[3] == 0:
                return False
            position = self._cursor + 1
            self._cascade_into(position)
            if counts[0]:
                if self._scan_level0(position):
                    return True
                continue
            self._seek(position)

    def _cascade_into(self, position: int) -> None:
        """When ``position`` enters a new slot at some level, spill that
        slot one level down (dropping cancelled entries).  Top level first,
        so freshly spilled entries keep cascading toward level 0."""
        for level in (3, 2, 1):
            shift = _SLOT_BITS * level
            if position & ((1 << shift) - 1) == 0 and self._level_counts[level]:
                self._spill(level, (position >> shift) & _MASK)

    def _spill(self, level: int, index: int) -> None:
        """Move one slot's live entries down one level, by tick bits.

        Cancelled entries are dropped here wholesale: the C-speed filter
        below is the wheel's bulk-disposal path — dead timers never cost
        a per-entry pop the way they do leaving a binary heap."""
        ring = self._rings[level]
        slot = ring[index]
        if not slot:
            return
        ring[index] = []
        self._level_counts[level] -= len(slot)
        live = [e for e in slot if not e[2]._cancelled]
        dead = len(slot) - len(live)
        if dead:
            self._count -= dead
            self.cancelled_pending -= dead
        below = self._rings[level - 1]
        shift = _SLOT_BITS * (level - 1)
        for entry in live:
            below[(int(entry[0] * TICKS_PER_SECOND) >> shift) & _MASK].append(entry)
        self._level_counts[level - 1] += len(live)

    def _scan_level0(self, position: int) -> bool:
        """Scan level 0 from ``position`` to the end of its 256-tick window.
        Loads the first slot with a live entry into the ready list.  On
        failure the cursor parks at the window end (so the next pass
        cascades the following window in first)."""
        index = position & _MASK
        base = position - index
        ring = self._rings[0]
        counts = self._level_counts
        for slot_index in range(index, _SLOTS):
            slot = ring[slot_index]
            if not slot:
                continue
            ring[slot_index] = []
            counts[0] -= len(slot)
            live = [e for e in slot if not e[2]._cancelled]
            dead = len(slot) - len(live)
            if dead:
                self._count -= dead
                self.cancelled_pending -= dead
            if live:
                live.sort()
                self._ready = live
                self._ready_pos = 0
                self._cursor = base + slot_index
                return True
        self._cursor = base + _MASK
        return False

    def _seek(self, position: int) -> None:
        """Level 0 is empty: advance the cursor toward the next occupied
        higher-level slot.  Moves at most one level-window per call; the
        spill itself happens via ``_cascade_into`` on the next pass."""
        counts = self._level_counts
        for level in (1, 2, 3):
            if counts[level] == 0:
                # Nothing stored at this level anywhere — a higher level
                # may still hold the next entry.
                continue
            shift = _SLOT_BITS * level
            index = (position >> shift) & _MASK
            ring = self._rings[level]
            # Shared-window placement guarantees every entry here shares
            # the parent window with ``position`` but not the level-L
            # window itself, i.e. its slot index is strictly greater.
            for slot_index in range(index + 1, _SLOTS):
                if ring[slot_index]:
                    # Park just before the occupied slot's window; the
                    # next pass enters it aligned and cascades it down.
                    self._cursor = (
                        ((position >> shift) - index + slot_index) << shift
                    ) - 1
                    return
            raise AssertionError(
                "timer wheel invariant violated: occupied level "
                f"{level} has no slot ahead of position {position}"
            )

    def _drain_overflow(self) -> None:
        """Pull overflow entries whose tick entered the top-level window."""
        overflow = self._overflow
        top = _WINDOW_BITS[_LEVELS - 1]
        window = (self._cursor + 1) >> top
        while overflow:
            tick = int(overflow[0][0] * TICKS_PER_SECOND)
            if tick >> top != window:
                break
            self._place(heapq.heappop(overflow), tick)
