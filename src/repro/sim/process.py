"""Generator-based cooperative processes on top of the event engine.

A *process* is a Python generator driven by the simulator.  The generator
yields one of:

* a ``float``/``int`` or :class:`Sleep` — suspend for that many simulated
  seconds;
* an :class:`Event` — suspend until the event is succeeded (the ``yield``
  evaluates to the event's value) or failed (the failure exception is raised
  inside the generator);
* another :class:`Process` — suspend until that process terminates (the
  ``yield`` evaluates to its return value; if it crashed the exception
  propagates).

Processes return values with plain ``return``.  This mirrors the SimPy
programming model but is small enough to keep fully deterministic and easy
to reason about in tests.

Blocking-style helpers (e.g. the TCP socket facade) are built on
:class:`Event` and :class:`Queue`.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

from repro.sim.engine import SimulationError, Simulator


class Sleep:
    """Explicit sleep request; equivalent to yielding a bare number."""

    __slots__ = ("duration",)

    def __init__(self, duration: float):
        if duration < 0:
            raise ValueError("sleep duration must be >= 0")
        self.duration = duration


class Event:
    """One-shot synchronisation event carrying a value or an exception.

    Waiters (processes or plain callbacks) registered before the trigger are
    woken in registration order on the same simulated timestamp.  Triggering
    twice is an error — protocol code that may race must guard with
    :attr:`triggered`.
    """

    __slots__ = ("sim", "_value", "_exception", "_triggered", "_waiters", "name")

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False
        self._waiters: List[Callable[["Event"], None]] = []

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._triggered and self._exception is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError(f"event {self.name!r} not yet triggered")
        if self._exception is not None:
            raise self._exception
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._value = value
        self._dispatch()
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception raised in every waiter."""
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._exception = exception
        self._dispatch()
        return self

    def add_waiter(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)``; runs via the scheduler if triggered."""
        if self._triggered:
            self.sim.schedule(0.0, callback, self)
        else:
            self._waiters.append(callback)

    def _dispatch(self) -> None:
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            self.sim.schedule(0.0, waiter, self)

    def __repr__(self) -> str:
        state = "triggered" if self._triggered else "pending"
        return f"Event({self.name!r}, {state})"


class ProcessCrashed(SimulationError):
    """A waited-upon process terminated with an exception."""


class Process:
    """A running generator, driven by the simulator.

    Use :func:`spawn` (or ``Process(sim, gen)``) to start one.  A process is
    itself awaitable from other processes (``result = yield child``) and
    exposes :attr:`done_event` for callback-style code.
    """

    _ids = 0

    def __init__(self, sim: Simulator, generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise TypeError(f"Process requires a generator, got {type(generator)!r}")
        Process._ids += 1
        self.sim = sim
        self.name = name or f"process-{Process._ids}"
        self._generator = generator
        self.done_event = Event(sim, name="process.done")
        self._interrupted: Optional[BaseException] = None
        sim.schedule(0.0, self._step, None, None)

    @property
    def alive(self) -> bool:
        return not self.done_event.triggered

    @property
    def result(self) -> Any:
        """Return value of the generator; raises if it crashed or is alive."""
        return self.done_event.value

    def interrupt(self, exception: Optional[BaseException] = None) -> None:
        """Raise ``exception`` (default :class:`Interrupted`) inside the process

        at its next resumption point.  Interrupting a finished process is a
        no-op.
        """
        if not self.alive:
            return
        self._interrupted = exception or Interrupted(f"{self.name} interrupted")

    def _step(self, send_value: Any, throw_exc: Optional[BaseException]) -> None:
        if self.done_event.triggered:
            return
        if self._interrupted is not None:
            throw_exc, self._interrupted = self._interrupted, None
        try:
            if throw_exc is not None:
                yielded = self._generator.throw(throw_exc)
            else:
                yielded = self._generator.send(send_value)
        except StopIteration as stop:
            self.done_event.succeed(stop.value)
            return
        except Interrupted as exc:
            # An unhandled interrupt terminates the process quietly.
            self.done_event.fail(exc)
            return
        except Exception as exc:  # noqa: BLE001 - process crash is a result
            self.done_event.fail(exc)
            return
        self._wait_on(yielded)

    def _wait_on(self, yielded: Any) -> None:
        if isinstance(yielded, Sleep):
            self.sim.schedule(yielded.duration, self._step, None, None)
        elif isinstance(yielded, (int, float)):
            if yielded < 0:
                self._step(None, SimulationError("negative sleep"))
            else:
                self.sim.schedule(float(yielded), self._step, None, None)
        elif isinstance(yielded, Process):
            yielded.done_event.add_waiter(self._resume_from_event)
        elif isinstance(yielded, Event):
            yielded.add_waiter(self._resume_from_event)
        else:
            self._step(
                None,
                SimulationError(f"process {self.name} yielded {yielded!r}"),
            )

    def _resume_from_event(self, event: Event) -> None:
        try:
            value = event.value
        except BaseException as exc:  # noqa: BLE001 - forwarded into generator
            self._step(None, exc)
            return
        self._step(value, None)

    def __repr__(self) -> str:
        state = "alive" if self.alive else "done"
        return f"Process({self.name!r}, {state})"


class Interrupted(Exception):
    """Raised inside a process that was interrupted."""


def spawn(sim: Simulator, generator: Generator, name: str = "") -> Process:
    """Start ``generator`` as a simulation process."""
    return Process(sim, generator, name=name)


class Queue:
    """Unbounded FIFO channel between processes.

    ``put`` never blocks.  ``get`` returns an :class:`Event` to yield on; it
    resolves with the oldest item.  Items put before any getter arrive are
    buffered.
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name or "queue"
        self._items: List[Any] = []
        self._getters: List[Event] = []

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            getter = self._getters.pop(0)
            getter.succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        event = Event(self.sim, name="queue.get")
        if self._items:
            event.succeed(self._items.pop(0))
        else:
            self._getters.append(event)
        return event

    def peek_all(self) -> List[Any]:
        """Snapshot of buffered items (for tests and introspection)."""
        return list(self._items)
