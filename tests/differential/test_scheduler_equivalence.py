"""Heap vs timer-wheel scheduler equivalence, driven by hypothesis.

Random schedule/cancel/reschedule/advance programs are interpreted twice
— once against ``Simulator(scheduler="heap")`` and once against
``Simulator(scheduler="wheel")`` — and must produce identical firing
logs (timestamp + tag, in order), identical clocks, and identical event
counts.  The wheel quantises deadlines into 1/64 s ticks internally, so
any divergence in ordering or timestamps is a real bug, not rounding:
the contract is that quantisation may *group* work for the scan but
never reorder or retime it.

Counters that describe *disposal timing* of cancelled entries
(``pending_events`` mid-run, ``compactions``) are deliberately not
compared: the heap disposes dead entries one-by-one at peek, the wheel
in bulk at slot scans — both are correct.  After a full drain both
backends must agree that nothing is left.

The event loop dequeues through one fused call, ``EventQueue.pop_due``.
The second half of this module holds it, on each backend, to the
``peek()`` + ``pop()`` pair it replaced — same entry, same
``cancelled_pending``, same ``len()`` after every step — and holds the
heap's in-place compaction to the one property the loop depends on: a
push bound before a compaction still lands in the live heap after it.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.engine import EventQueue, HeapEventQueue, Simulator, Timer
from repro.sim.wheel import TimerWheel

# Deadline pools.  TIGHT forces ties and same-tick collisions (the wheel
# quantises to 1/64 s, so 0.001 vs 0.002 land in one slot); WIDE spans
# every wheel level plus the overflow heap (> ~2 years of ticks).
TIGHT_DELAYS = [0.0, 0.001, 0.002, 0.01, 0.015625, 0.5, 1.0, 1.0, 2.0]
WIDE_DELAYS = [0.001, 0.5, 3.0, 250.0, 4_000.0, 1_048_576.0, 2.0e8, 1.5e9]


def _op_strategy(delays):
    delay = st.sampled_from(delays)
    small = st.integers(0, 200)
    return st.one_of(
        st.tuples(st.just("schedule"), delay, small),
        st.tuples(st.just("nested"), delay, small, delay),
        st.tuples(st.just("cancel"), small),
        st.tuples(st.just("reschedule"), small, delay),
        st.tuples(st.just("cancel_at"), delay, small, small),
        st.tuples(st.just("advance"), delay),
        st.tuples(st.just("drain"), st.integers(1, 8)),
    )


def run_program(scheduler, ops):
    """Interpret one op program; returns the observable outcome."""
    sim = Simulator(scheduler=scheduler)
    log = []
    timers = []

    def fire(tag):
        log.append((sim.now, tag))

    def fire_nested(tag, delay):
        # Scheduling from inside a callback exercises same-time and
        # past-cursor pushes on the wheel.
        log.append((sim.now, tag))
        timers.append(sim.schedule(delay, fire, -tag - 1))

    def fire_cancelling(tag, victim):
        log.append((sim.now, tag))
        if timers:
            timers[victim % len(timers)].cancel()

    for op in ops:
        kind = op[0]
        if kind == "schedule":
            timers.append(sim.schedule(op[1], fire, op[2]))
        elif kind == "nested":
            timers.append(sim.schedule(op[1], fire_nested, op[2], op[3]))
        elif kind == "cancel":
            if timers:
                timers[op[1] % len(timers)].cancel()
        elif kind == "reschedule":
            if timers:
                timers[op[1] % len(timers)].cancel()
                timers.append(sim.schedule(op[2], fire, 1000 + op[1]))
        elif kind == "cancel_at":
            timers.append(sim.schedule(op[1], fire_cancelling, op[2], op[3]))
        elif kind == "advance":
            sim.run(until=sim.now + op[1])
        elif kind == "drain":
            sim.run(max_events=op[1])
    sim.run()
    return {
        "log": log,
        "now": sim.now,
        "events": sim.events_processed,
        "pending": sim.pending_events,
        "cancelled": sim.cancelled_pending,
    }


def _assert_equivalent(ops):
    heap = run_program("heap", ops)
    wheel = run_program("wheel", ops)
    assert heap["log"] == wheel["log"]
    assert heap["now"] == wheel["now"]
    assert heap["events"] == wheel["events"]
    # Fully drained: both must agree the queues are empty.
    assert heap["pending"] == wheel["pending"] == 0
    assert heap["cancelled"] == wheel["cancelled"] == 0


@given(st.lists(_op_strategy(TIGHT_DELAYS + WIDE_DELAYS), max_size=60))
def test_mixed_programs_equivalent(ops):
    _assert_equivalent(ops)


@given(st.lists(_op_strategy(TIGHT_DELAYS), max_size=60))
def test_tie_heavy_programs_equivalent(ops):
    """Dense same-tick collisions: insertion-order tie-breaks must agree."""
    _assert_equivalent(ops)


@given(st.lists(_op_strategy(WIDE_DELAYS), max_size=40))
def test_wide_horizon_programs_equivalent(ops):
    """Deadlines spanning all wheel levels and the overflow heap."""
    _assert_equivalent(ops)


@given(
    st.lists(st.sampled_from(TIGHT_DELAYS + WIDE_DELAYS), min_size=1, max_size=80),
    st.lists(st.integers(0, 1 << 16), max_size=80),
    st.data(),
)
def test_cancellation_storms_equivalent(delays, cancels, data):
    """Mass cancellation exercises both compaction paths; survivors must
    fire identically."""
    ops = [("schedule", d, i) for i, d in enumerate(delays)]
    ops += [("cancel", c) for c in cancels]
    ops.append(("advance", data.draw(st.sampled_from(TIGHT_DELAYS + WIDE_DELAYS))))
    _assert_equivalent(ops)


# -- the fused dequeue -----------------------------------------------------------

BACKENDS = {"heap": HeapEventQueue, "wheel": TimerWheel}


class _QueueDriver:
    """One bare EventQueue plus the clock/sequence bookkeeping the
    simulator would do, dequeuing either fused or as peek + pop."""

    def __init__(self, backend, fused):
        self.queue = BACKENDS[backend]()
        self.fused = fused
        self.now = 0.0
        self.sequence = 0
        self.timers = []
        # Timer.cancel reports to its simulator; the queue is all of it here.
        self._sim = SimpleNamespace(_on_cancel=self.queue.on_cancel)

    def push(self, delay):
        timer = Timer(self.now + delay, lambda: None, (), self._sim)
        self.queue.push((timer.deadline, self.sequence, timer))
        self.sequence += 1
        self.timers.append(timer)

    def cancel(self, index):
        if self.timers:
            self.timers[index % len(self.timers)].cancel()

    def dequeue(self, delay):
        limit = self.now + delay
        if self.fused:
            entry = self.queue.pop_due(limit)
        else:
            entry = self.queue.peek()
            if entry is not None and entry[0] > limit:
                entry = None
            if entry is not None:
                assert self.queue.pop() is entry
        if entry is None:
            return None
        self.now = entry[0]
        entry[2]._fire()
        return entry[:2]

    def state(self):
        return len(self.queue), self.queue.cancelled_pending


_QUEUE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.sampled_from(TIGHT_DELAYS + WIDE_DELAYS)),
        st.tuples(st.just("cancel"), st.integers(0, 200)),
        st.tuples(st.just("dequeue"), st.sampled_from(TIGHT_DELAYS + WIDE_DELAYS)),
    ),
    max_size=80,
)


@given(_QUEUE_OPS)
def test_fused_dequeue_matches_peek_then_pop(ops):
    drivers = {
        (backend, fused): _QueueDriver(backend, fused)
        for backend in BACKENDS for fused in (True, False)
    }

    def step(kind, argument):
        results = {key: getattr(driver, kind)(argument) for key, driver in drivers.items()}
        # Same entries in the same order on every backend, either way ...
        assert len(set(results.values())) == 1
        # ... and on one backend the fused call leaves the same storage
        # behind as the pair did, after every single step.
        for backend in BACKENDS:
            assert drivers[backend, True].state() == drivers[backend, False].state()
        return results["heap", True]

    for kind, argument in ops:
        step(kind, argument)
    while step("dequeue", 4.0e9) is not None:
        pass
    assert all(driver.state() == (0, 0) for driver in drivers.values())


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_bound_holds_behind_a_cancelled_head(backend):
    """A dead head must not let the live, later entry behind it through."""
    driver = _QueueDriver(backend, fused=True)
    driver.push(1.0)
    driver.push(5.0)
    driver.cancel(0)
    assert driver.dequeue(2.0) is None
    # The dead head went on the way; the late entry is untouched.
    assert driver.state() == (1, 0)
    assert driver.dequeue(5.0) == (5.0, 1)

    sim = Simulator(scheduler=backend)
    fired = []
    sim.schedule(1.0, fired.append, "dead").cancel()
    sim.schedule(5.0, fired.append, "late")
    assert sim.run(until=2.0) == 2.0 and fired == []
    assert not sim.run_until(lambda: bool(fired), timeout=2.0)
    assert sim.now == 4.0 and sim.pending_events == 1
    assert sim.run_until(lambda: bool(fired), timeout=2.0)
    assert sim.now == 5.0 and fired == ["late"]


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_compaction_inside_the_loop_loses_nothing(backend):
    """``compact()`` fires from a callback, under the running loop and under
    the push ``call_at`` bound at construction: timers armed before it keep
    their order, timers armed after it (same callback and later ones) fire."""
    sim = Simulator(scheduler=backend)
    fired = []
    doomed = [
        sim.schedule(2.0 + i * 0.001, fired.append, f"dead{i}")
        for i in range(4 * EventQueue.COMPACT_MIN_CANCELLED)
    ]
    for i in range(10):
        sim.schedule(3.0 + i, fired.append, f"before{i}")

    def massacre():
        for timer in doomed:
            timer.cancel()
        assert sim.compactions >= 1
        sim.schedule(0.0, fired.append, "same-instant")
        sim.schedule(2.5, rearm, 0)

    def rearm(count):
        fired.append(f"after{count}")
        if count < 5:
            sim.schedule(1.0, rearm, count + 1)

    sim.schedule(1.0, massacre)
    sim.run()
    assert fired == [
        "same-instant",
        "before0", "after0", "before1", "after1", "before2", "after2",
        "before3", "after3", "before4", "after4", "before5", "after5",
        "before6", "before7", "before8", "before9",
    ]
    assert sim.pending_events == 0 and sim.cancelled_pending == 0
