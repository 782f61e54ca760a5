"""Event queue and simulated clock.

The :class:`Simulator` is a classic discrete-event scheduler: callbacks are
enqueued at absolute simulated times and executed in time order.  Ties are
broken by insertion order, which keeps runs deterministic.

Time is a float measured in **seconds** of simulated time.  All network
latencies, transmission delays and protocol timers in this repository are
expressed in seconds.

Storage for pending timers lives behind the :class:`EventQueue` interface
with two interchangeable backends:

* ``"heap"`` (default) — the classic binary heap with lazy compaction of
  cancelled entries (:class:`HeapEventQueue`).  Its per-event work is two
  calls into C ``heapq``, which is what the traffic this repository
  actually carries rewards (DESIGN.md §10 has the per-workload table);
* ``"wheel"`` — the hierarchical timer wheel in :mod:`repro.sim.wheel`,
  O(1) amortised schedule/cancel and bulk disposal of cancelled timers
  during slot cascades, kept selectable and held to the heap by the
  differential equivalence suite (``tests/differential/``).

Both backends are observationally identical: same firing order, same
timestamps, same counter semantics — the property the differential test
plane exists to prove.  Select per instance (``Simulator(scheduler=...)``)
or process-wide with the ``REPRO_SIM_SCHEDULER`` environment variable.
"""

from __future__ import annotations

import itertools
import os
from functools import partial
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple, Union

if TYPE_CHECKING:  # the sim core stays import-free of the obs plane
    from repro.obs.metrics import MetricsRegistry


#: One stored timer: ``(deadline, insertion order, timer)``.  Tuples sort
#: lexicographically and insertion order is unique, so comparisons never
#: reach the Timer object — the same tie-break the original heap used.
Entry = Tuple[float, int, "Timer"]

#: Environment override for the default scheduler backend.
SCHEDULER_ENV = "REPRO_SIM_SCHEDULER"

DEFAULT_SCHEDULER = "heap"

_FOREVER = float("inf")


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


def _dropped(*args: Any) -> None:
    """What a cancelled timer holds in place of its callback."""


class Timer:
    """Handle for a scheduled callback.

    A ``Timer`` is returned by :meth:`Simulator.schedule` and
    :meth:`Simulator.call_at`.  It can be cancelled as long as it has not
    fired; cancelling an already-fired or already-cancelled timer is a no-op,
    which makes cleanup code straightforward.
    """

    __slots__ = ("deadline", "_callback", "_args", "_cancelled", "_fired", "_sim")

    def __init__(
        self,
        deadline: float,
        callback: Callable[..., None],
        args: Tuple[Any, ...],
        sim: Optional["Simulator"] = None,
    ):
        self.deadline = deadline
        self._callback = callback
        self._args = args
        self._cancelled = False
        self._fired = False
        # Back-reference so cancellation can be accounted for lazily by
        # the owning simulator's queue compaction (None for standalone
        # timers constructed in tests).
        self._sim = sim

    @property
    def active(self) -> bool:
        """True while the timer is pending (not fired, not cancelled)."""
        return not (self._cancelled or self._fired)

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def fired(self) -> bool:
        return self._fired

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent.  The callback and
        its arguments go at once: the dead entry may stay queued for a
        while, and must not keep their owner (a TCB, a detector) alive."""
        if not self._fired and not self._cancelled:
            self._cancelled = True
            self._callback, self._args = _dropped, ()
            if self._sim is not None:
                self._sim._on_cancel()

    def _fire(self) -> None:
        if self._cancelled:
            return
        self._fired = True
        self._callback(*self._args)

    def __repr__(self) -> str:
        state = "cancelled" if self._cancelled else ("fired" if self._fired else "pending")
        return f"Timer(deadline={self.deadline:.9f}, {state})"


class EventQueue:
    """Interface for pending-timer storage (a scheduler backend).

    The contract the differential suite enforces on every implementation:

    * :meth:`peek` returns the earliest **live** entry in ``(deadline,
      insertion order)`` order without removing it, disposing of any
      cancelled entries it encounters on the way (decrementing
      ``cancelled_pending`` for each);
    * :meth:`pop` removes the entry the immediately-preceding ``peek``
      returned;
    * :meth:`pop_due` is the two fused — what the event loop calls, once
      per event: remove and return the earliest live entry unless its
      deadline lies beyond the given bound;
    * ``len()`` counts every stored entry, cancelled ones included;
    * cancellation is O(1) via :meth:`on_cancel`, which compacts dead
      entries away only once they exceed ``COMPACT_DEAD_RATIO`` of the
      queue (and at least ``COMPACT_MIN_CANCELLED`` of them exist), so
      total compaction work stays bounded by a constant multiple of the
      number of cancellations (see ``compaction_work``).
    """

    #: Human-readable backend name (``"heap"`` / ``"wheel"``).
    backend: str = ""

    #: Compaction only kicks in above this many cancelled entries, so small
    #: queues never pay the rebuild cost.
    COMPACT_MIN_CANCELLED = 64

    #: ...and only once dead entries make up at least this fraction of the
    #: queue.  Each compaction then examines at most ``1/ratio`` entries per
    #: cancellation since the previous one, which amortises to O(1).
    COMPACT_DEAD_RATIO = 0.5

    def __init__(self) -> None:
        #: Cancelled timers still occupying storage.
        self.cancelled_pending = 0
        #: Number of compaction passes performed.
        self.compactions = 0
        #: Total entries examined across all compactions — the measurable
        #: bound the amortisation test asserts on.
        self.compaction_work = 0
        # Cache the class-level policy knobs on the instance: on_cancel is
        # on the cancellation hot path and instance reads are cheaper.
        self._compact_min = self.COMPACT_MIN_CANCELLED
        self._compact_ratio = self.COMPACT_DEAD_RATIO

    def push(self, entry: Entry) -> None:
        raise NotImplementedError

    def peek(self) -> Optional[Entry]:
        raise NotImplementedError

    def pop(self) -> Entry:
        raise NotImplementedError

    def pop_due(self, limit: float) -> Optional[Entry]:
        """Remove and return the earliest live entry with ``deadline <=
        limit``; ``None`` (and nothing removed but cancelled heads) when
        there is no such entry."""
        head = self.peek()
        if head is None or head[0] > limit:
            return None
        return self.pop()

    def compact(self) -> None:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def on_cancel(self) -> None:
        """Account for a cancellation; compact once dead entries dominate.

        With tens of thousands of in-flight timers (retransmission timers
        that almost always get cancelled by the ACK, detector timeouts
        rearmed every heartbeat) storage can fill up with dead entries.
        Disposal is O(live) per pass and amortises to O(1) per
        cancellation because a pass only runs when at least
        ``COMPACT_DEAD_RATIO`` of the stored entries are dead.
        """
        cancelled = self.cancelled_pending + 1
        self.cancelled_pending = cancelled
        if cancelled >= self._compact_min and cancelled >= self._compact_ratio * len(self):
            self.compact()


class HeapEventQueue(EventQueue):
    """The classic binary-heap backend with lazy compaction.

    Cancelled timers stay in the heap until popped or compacted away;
    ``cancelled_pending`` counts how many of the queued entries are dead.
    """

    backend = "heap"

    def __init__(self) -> None:
        super().__init__()
        self._heap: List[Entry] = []
        # Instances push through C ``heappush`` bound to the list object
        # itself (no Python frame per timer); the method below is the same
        # operation spelled out.  The list is therefore never rebound, only
        # mutated — see compact().
        self.push = partial(heappush, self._heap)  # type: ignore[method-assign]

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, entry: Entry) -> None:
        heappush(self._heap, entry)

    def peek(self) -> Optional[Entry]:
        heap = self._heap
        while heap:
            head = heap[0]
            if head[2]._cancelled:
                heappop(heap)
                self.cancelled_pending -= 1
                continue
            return head
        return None

    def pop(self) -> Entry:
        return heappop(self._heap)

    def pop_due(self, limit: float) -> Optional[Entry]:
        heap = self._heap
        while heap:
            head = heap[0]
            if head[2]._cancelled:
                heappop(heap)
                self.cancelled_pending -= 1
            elif head[0] > limit:
                return None
            else:
                return heappop(heap)
        return None

    def compact(self) -> None:
        """Drop cancelled entries and re-heapify the survivors, in place.

        Entries keep their original ``(deadline, sequence)`` keys, so the
        firing order of live timers — including insertion-order
        tie-breaking — is unchanged.
        """
        heap = self._heap
        self.compaction_work += len(heap)
        heap[:] = [entry for entry in heap if not entry[2]._cancelled]
        heapify(heap)
        self.cancelled_pending = 0
        self.compactions += 1


def _make_queue(scheduler: Union[str, EventQueue, None]) -> EventQueue:
    """Resolve a backend spec (instance, name, or None for the default)."""
    if isinstance(scheduler, EventQueue):
        return scheduler
    if scheduler is None:
        scheduler = os.environ.get(SCHEDULER_ENV, "") or DEFAULT_SCHEDULER
    if scheduler == "heap":
        return HeapEventQueue()
    if scheduler == "wheel":
        from repro.sim.wheel import TimerWheel

        return TimerWheel()
    raise SimulationError(
        f"unknown scheduler backend {scheduler!r} (expected 'heap' or 'wheel')"
    )


class Simulator:
    """Discrete-event scheduler with a simulated clock.

    Example::

        sim = Simulator()
        sim.schedule(1.5, print, "fires at t=1.5")
        sim.run()

    ``scheduler`` selects the timer-storage backend: ``"heap"`` (default),
    ``"wheel"``, or an :class:`EventQueue` instance.  When omitted, the
    ``REPRO_SIM_SCHEDULER`` environment variable is consulted first.
    """

    def __init__(self, scheduler: Union[str, EventQueue, None] = None) -> None:
        self._now = 0.0
        self._queue: EventQueue = _make_queue(scheduler)
        # Bound once: call_at and Timer.cancel run per timer, and the
        # queue object never changes.
        self._push = self._queue.push
        self._on_cancel = self._queue.on_cancel
        self._sequence = itertools.count()
        self._running = False
        self._events_processed = 0
        # Optional observability hook (see set_metrics).
        self._m_events: Optional[Any] = None
        self._m_queue_peak: Optional[Any] = None

    def set_metrics(self, metrics: "MetricsRegistry") -> None:
        """Attach a :class:`repro.obs.metrics.MetricsRegistry`.

        Publishes ``sim.events`` (callbacks executed) and
        ``sim.queue_depth_peak`` (event-loop occupancy high watermark)
        when ``run``/``run_until`` returns — not per event.
        """
        self._m_events = metrics.counter("sim.events")
        self._m_queue_peak = metrics.gauge("sim.queue_depth_peak")

    def _publish_events(self, fired: int, peak: int, depth: int) -> None:
        """What per-event ``inc()`` + ``set(len(queue))`` would have left:
        the count, the last depth as the value, the peak as the watermark."""
        assert self._m_events is not None and self._m_queue_peak is not None
        self._m_events.inc(fired)
        self._m_queue_peak.set(peak)
        self._m_queue_peak.set(depth)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def scheduler_backend(self) -> str:
        """Name of the active timer-storage backend."""
        return self._queue.backend

    @property
    def events_processed(self) -> int:
        """Total number of callbacks executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled timers)."""
        return len(self._queue)

    @property
    def cancelled_pending(self) -> int:
        """Cancelled timers still occupying storage."""
        return self._queue.cancelled_pending

    @property
    def compactions(self) -> int:
        """Number of lazy compaction passes performed so far."""
        return self._queue.compactions

    @property
    def compaction_work(self) -> int:
        """Total entries examined by compaction — the amortisation bound."""
        return self._queue.compaction_work

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Run ``callback(*args)`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.call_at(self._now + delay, callback, *args)

    def call_at(self, when: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Run ``callback(*args)`` at absolute simulated time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at t={when} (now={self._now})"
            )
        timer = Timer(when, callback, args, self)
        self._push((when, next(self._sequence), timer))
        return timer

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Process events until the queue drains, ``until`` or ``max_events``.

        Returns the simulated time when the run stopped.  If ``until`` is
        given and the queue drains earlier, the clock is advanced to
        ``until`` so repeated bounded runs compose naturally.
        """
        self._fire_due(_FOREVER if until is None else until, max_events, None)
        if until is not None and self._now < until and not self._queue_has_work(until):
            self._now = until
        return self._now

    def run_until(self, predicate: Callable[[], bool], timeout: float) -> bool:
        """Run until ``predicate()`` becomes true or ``timeout`` sim-seconds pass.

        The predicate is checked after every processed event.  Returns True
        if the predicate held when the run stopped.
        """
        deadline = self._now + timeout
        if predicate():
            return True
        if self._fire_due(deadline, None, predicate):
            return True
        if self._now < deadline:
            self._now = deadline
        return predicate()

    def _fire_due(
        self,
        limit: float,
        max_events: Optional[int],
        predicate: Optional[Callable[[], bool]],
    ) -> bool:
        """The event loop: fire live timers in order while none lies beyond
        ``limit``, ``max_events`` have not fired and ``predicate`` (checked
        after every event) is false.  Returns True when the predicate
        stopped it."""
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        queue = self._queue
        pop_due = queue.pop_due
        metered = self._m_events is not None
        fired = peak = depth = 0
        try:
            while True:
                entry = pop_due(limit)
                if entry is None:
                    return False
                self._now = entry[0]
                entry[2]._fire()
                self._events_processed += 1
                fired += 1
                if metered:
                    depth = len(queue)
                    if depth > peak:
                        peak = depth
                if predicate is not None and predicate():
                    return True
                if max_events is not None and fired >= max_events:
                    return False
        finally:
            self._running = False
            if metered and fired:
                self._publish_events(fired, peak, depth)

    def _queue_has_work(self, until: float) -> bool:
        head = self._queue.peek()
        return head is not None and head[0] <= until

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self._now:.9f}, pending={len(self._queue)},"
            f" processed={self._events_processed}, backend={self._queue.backend})"
        )
