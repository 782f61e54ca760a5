"""Unit tests for the discrete-event scheduler."""

import random

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import SimulationError, Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_schedule_and_run_orders_by_time():
    sim = Simulator()
    order = []
    sim.schedule(2.0, order.append, "b")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(3.0, order.append, "c")
    sim.run()
    assert order == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    sim = Simulator()
    order = []
    for tag in "abcde":
        sim.schedule(1.0, order.append, tag)
    sim.run()
    assert order == list("abcde")


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(1.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.5]
    assert sim.now == 1.5


def test_run_until_bound_leaves_future_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(5.0, fired.append, 5)
    sim.run(until=2.0)
    assert fired == [1]
    assert sim.pending_events == 1
    sim.run()
    assert fired == [1, 5]


def test_run_until_advances_clock_to_bound_when_idle():
    sim = Simulator()
    sim.run(until=4.0)
    assert sim.now == 4.0


def test_cancelled_timer_does_not_fire():
    sim = Simulator()
    fired = []
    timer = sim.schedule(1.0, fired.append, 1)
    timer.cancel()
    sim.run()
    assert fired == []
    assert timer.cancelled and not timer.fired


def test_cancel_is_idempotent_and_late_cancel_is_noop():
    sim = Simulator()
    fired = []
    timer = sim.schedule(1.0, fired.append, 1)
    sim.run()
    timer.cancel()  # already fired: no-op
    assert fired == [1]
    assert timer.fired


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_call_at_in_the_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(1.0, lambda: None)


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    seen = []

    def first():
        sim.schedule(1.0, seen.append, "second")

    sim.schedule(1.0, first)
    sim.run()
    assert seen == ["second"]
    assert sim.now == 2.0


def test_zero_delay_event_runs_at_same_time():
    sim = Simulator()
    times = []
    sim.schedule(3.0, lambda: sim.schedule(0.0, lambda: times.append(sim.now)))
    sim.run()
    assert times == [3.0]


def test_max_events_bound():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i + 1), fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_run_until_predicate():
    sim = Simulator()
    box = []
    sim.schedule(1.0, box.append, 1)
    sim.schedule(2.0, box.append, 2)
    sim.schedule(3.0, box.append, 3)
    assert sim.run_until(lambda: len(box) >= 2, timeout=10.0)
    assert box == [1, 2]


def test_run_until_times_out():
    sim = Simulator()
    assert not sim.run_until(lambda: False, timeout=1.0)
    assert sim.now == 1.0


def test_events_processed_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_not_reentrant():
    sim = Simulator()
    errors = []

    def recurse():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, recurse)
    sim.run()
    assert len(errors) == 1


# -- lazy heap compaction -----------------------------------------------------


def test_mass_cancellation_compacts_queue():
    sim = Simulator()
    keep = sim.schedule(1000.0, lambda: None)
    timers = [sim.schedule(float(i + 1), lambda: None) for i in range(500)]
    for t in timers:
        t.cancel()
    # Dead entries dominated the heap, so a compaction must have dropped them
    # without waiting for run() to pop each one.
    assert sim.compactions >= 1
    assert sim.pending_events < 64
    assert sim.cancelled_pending < 64
    assert keep.active


def test_small_queues_never_compact():
    sim = Simulator()
    timers = [sim.schedule(float(i + 1), lambda: None) for i in range(32)]
    for t in timers:
        t.cancel()
    assert sim.compactions == 0
    sim.run()
    assert sim.events_processed == 0


def test_compaction_preserves_order_and_ties():
    sim = Simulator()
    order = []
    # Interleave survivors with a dominating population of cancelled timers,
    # including same-deadline survivors whose tie-break must survive heapify.
    survivors = []
    doomed = []
    for i in range(200):
        doomed.append(sim.schedule(1.0 + i * 0.001, order.append, f"dead{i}"))
        if i % 20 == 0:
            survivors.append((f"s{i}", sim.schedule(5.0, order.append, f"s{i}")))
    for t in doomed:
        t.cancel()
    assert sim.compactions >= 1
    sim.run()
    assert order == [tag for tag, _t in survivors]


def test_cancelled_pending_tracks_pops_without_compaction():
    sim = Simulator()
    live = [sim.schedule(float(i + 1), lambda: None) for i in range(100)]
    dead = [sim.schedule(float(i + 1) + 0.5, lambda: None) for i in range(40)]
    for t in dead:
        t.cancel()
    # 40 dead of 140 queued: below the domination threshold, no compaction.
    assert sim.compactions == 0
    assert sim.cancelled_pending == 40
    sim.run()
    assert sim.cancelled_pending == 0
    assert sim.events_processed == len(live)


def test_cancel_during_run_is_compaction_safe():
    sim = Simulator()
    fired = []
    doomed = [sim.schedule(2.0 + i * 0.001, fired.append, i) for i in range(300)]

    def kill_all():
        for t in doomed:
            t.cancel()

    sim.schedule(1.0, kill_all)
    sim.schedule(3.0, fired.append, "end")
    sim.run()
    assert fired == ["end"]
    assert sim.cancelled_pending == 0


def test_compaction_work_is_amortised_linear():
    """The dead-ratio threshold bounds total rebuild work.

    Cancelling every one of N timers triggers compactions only when dead
    entries dominate, so the sweep sizes form a geometric series: total
    compaction work stays O(N) (a naive compact-on-every-cancel policy
    would be O(N^2)) and the number of rebuilds stays logarithmic.
    """
    total = 5_000
    sim = Simulator()
    keep = sim.schedule(float(total + 10), lambda: None)
    timers = [sim.schedule(float(i + 1), lambda: None) for i in range(total)]
    for t in timers:
        t.cancel()
    assert sim.compaction_work <= 3 * total
    assert 1 <= sim.compactions <= 10
    assert keep.active
    sim.run()
    assert sim.events_processed == 1


def test_trace_streams_identical_across_backends(monkeypatch):
    """Same seed + same program ⇒ identical sim.trace streams for heap
    and wheel (the scheduler backend must be invisible to replay)."""
    from tests.util import SERVER_IP, TwoHostLan

    def trace_stream(backend):
        monkeypatch.setenv("REPRO_SIM_SCHEDULER", backend)
        lan = TwoHostLan(seed=7)
        assert lan.sim.scheduler_backend == backend
        lan.server.tcp.listen(80)
        conn = lan.client.tcp.connect(SERVER_IP, 80)
        lan.run(until=0.5)
        conn.write(b"x" * 20_000)
        lan.run(until=2.0)
        conn.close()
        lan.run(until=5.0)
        stream = [str(record) for record in lan.tracer.records]
        assert stream  # a silent run would make the comparison vacuous
        return stream

    assert trace_stream("heap") == trace_stream("wheel")


# -- re-entrancy ----------------------------------------------------------------


def _reentry_errors(outer, inner):
    """Run ``outer(sim)`` with one callback that calls ``inner(sim)``."""
    sim = Simulator()
    errors = []

    def reenter():
        try:
            inner(sim)
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, reenter)
    outer(sim)
    return sim, errors


def _run(sim):
    sim.run()


def _run_until_never(sim):
    sim.run_until(lambda: False, timeout=5.0)


@pytest.mark.parametrize(
    "outer, inner",
    [(_run_until_never, _run_until_never), (_run_until_never, _run), (_run, _run_until_never)],
)
def test_run_until_is_not_reentrant(outer, inner):
    sim, errors = _reentry_errors(outer, inner)
    assert len(errors) == 1 and "re-entrant" in str(errors[0])
    # The guard is released again once the outer loop returns.
    sim.schedule(1.0, lambda: None)
    sim.run()


def test_run_until_satisfied_predicate_returns_before_the_guard():
    """The early ``predicate()`` return never touches the queue, so it
    stays callable from inside a callback."""
    sim = Simulator()
    answers = []
    sim.schedule(1.0, lambda: answers.append(sim.run_until(lambda: True, timeout=1.0)))
    sim.run()
    assert answers == [True]


def test_run_until_clears_the_guard_when_a_callback_raises():
    sim = Simulator()

    def boom():
        raise ValueError("boom")

    sim.schedule(1.0, boom)
    with pytest.raises(ValueError):
        sim.run_until(lambda: False, timeout=5.0)
    fired = []
    sim.schedule(1.0, fired.append, "after")
    assert sim.run_until(lambda: bool(fired), timeout=5.0)


# -- sim.events / sim.queue_depth_peak publication ---------------------------------


def _metered_program(backend, explode_after=None):
    """A seeded schedule/cancel/nested-schedule program on a metered sim."""
    rng = random.Random(11)
    sim = Simulator(scheduler=backend)
    registry = MetricsRegistry()
    sim.set_metrics(registry)
    timers = []
    fired = []

    def fire(tag):
        fired.append(tag)
        if len(fired) == explode_after:
            raise ValueError(f"callback {tag} failed")
        if tag % 3 == 0:
            timers.append(sim.schedule(rng.choice([0.0, 0.01, 0.7, 3.0]), fire, 1000 + tag))
        if tag % 4 == 0:
            rng.choice(timers).cancel()

    for tag in range(120):
        timers.append(sim.schedule(rng.uniform(0.0, 5.0), fire, tag))
    for victim in rng.sample(timers, 30):
        victim.cancel()
    return sim, registry, fired


def _published(registry):
    gauge = registry.gauge("sim.queue_depth_peak")
    return registry.counter("sim.events").value, gauge.value, gauge.high_watermark


def _step_to_the_end(sim, until=None):
    """One event per ``run`` call: that *is* publication after every event."""
    while True:
        before = sim.events_processed
        sim.run(until=until, max_events=1)
        if sim.events_processed == before:
            return


@pytest.mark.parametrize("backend", ["heap", "wheel"])
def test_metrics_published_at_return_equal_per_event_publication(backend):
    batch, batch_registry, batch_fired = _metered_program(backend)
    stepped, stepped_registry, stepped_fired = _metered_program(backend)
    batch.run()
    _step_to_the_end(stepped)
    assert batch_fired == stepped_fired and len(batch_fired) > 60
    assert _published(batch_registry) == _published(stepped_registry)
    events, last_depth, peak = _published(batch_registry)
    assert events == batch.events_processed == len(batch_fired)
    assert last_depth == 0 < peak


@pytest.mark.parametrize("backend", ["heap", "wheel"])
def test_metrics_published_when_a_callback_raises(backend):
    """The loop's ``finally`` publishes what fired before the failure; the
    failing callback itself is not counted, as it never was."""
    batch, batch_registry, batch_fired = _metered_program(backend, explode_after=40)
    stepped, stepped_registry, stepped_fired = _metered_program(backend, explode_after=40)
    with pytest.raises(ValueError):
        batch.run()
    with pytest.raises(ValueError):
        _step_to_the_end(stepped)
    assert batch_fired == stepped_fired and len(batch_fired) == 40
    assert _published(batch_registry) == _published(stepped_registry)
    assert _published(batch_registry)[0] == batch.events_processed == 39


@pytest.mark.parametrize("backend", ["heap", "wheel"])
def test_run_until_publishes_like_run(backend):
    batch, batch_registry, batch_fired = _metered_program(backend)
    stepped, stepped_registry, stepped_fired = _metered_program(backend)
    assert not batch.run_until(lambda: False, timeout=2.5)
    _step_to_the_end(stepped, until=2.5)
    assert batch_fired == stepped_fired and 0 < len(batch_fired) < 120
    assert batch.now == stepped.now == 2.5
    assert _published(batch_registry) == _published(stepped_registry)
    assert _published(batch_registry)[1] >= batch.pending_events > 0
