"""Simulator scheduling-throughput guard, per scheduler backend.

The cluster capacity runs push hundreds of thousands of timers through
one ``Simulator``; most retransmission timers are cancelled by the ACK
long before their deadline.  This benchmark drives three synthetic loads
against **both** scheduler backends (the lazy-compaction heap and the
hierarchical timer wheel):

* ``fire`` — a plain schedule/fire loop through the full Simulator API;
* ``churn`` — schedule, cancel 95%, fire the rest (compaction path);
* ``dispose`` — the cancellation-disposal cell, measured at the
  EventQueue level: a deep live "floor" of far-future timers plus a
  near-term churn population that is 95% cancelled, then drained.  This
  isolates the structural difference between the backends: the heap pays
  a full-depth sift per dead entry popped at peek, the wheel drops dead
  entries in bulk list-filter passes during slot scans.  The acceptance
  bar — wheel ≥ 2× heap — is asserted on this cell (median of 3 trials).

The drain bound deliberately leaves a live churn tail: a peek past the
last churn entry would force the wheel to cascade the entire floor,
which is a different (and unrepresentative) workload.

Floors are deliberately loose (~5-10x below observed) so they only trip
on algorithmic regressions, not machine noise.
"""

import itertools
import statistics
import time

from benchmarks.conftest import FULL, emit
from repro.harness.report import Report, Table
from repro.sim.engine import HeapEventQueue, Simulator, Timer
from repro.sim.wheel import TimerWheel

EVENTS = 200_000 if FULL else 50_000
DISPOSE_FLOOR = 500_000 if FULL else 200_000
DISPOSE_CHURN = 100_000 if FULL else 50_000
TRIALS = 3  # best-of-N per cell: the guard compares these, so damp noise

MIN_FIRE_RATE = 100_000.0  # events/sec, schedule+fire
MIN_CHURN_RATE = 50_000.0  # timers/sec, schedule+cancel-heavy
MIN_DISPOSE_RATIO = 2.0  # wheel vs heap on the dispose cell

BACKENDS = ("heap", "wheel")


def _noop():
    return None


def _make_queue(backend):
    return HeapEventQueue() if backend == "heap" else TimerWheel()


def run_fire_loop(backend):
    """Schedule EVENTS timers and fire them all."""
    sim = Simulator(scheduler=backend)
    for i in range(EVENTS):
        sim.schedule(float(i) * 1e-6, _noop)
    sim.run()
    assert sim.events_processed == EVENTS
    return sim


def run_churn_loop(backend):
    """Schedule EVENTS timers, cancel 95% of them, fire the rest.

    Without lazy compaction the backend holds every dead entry until
    run() pops it; with compaction storage shrinks as cancellations
    dominate.
    """
    sim = Simulator(scheduler=backend)
    live = 0
    timers = []
    for i in range(EVENTS):
        t = sim.schedule(1.0 + float(i) * 1e-6, _noop)
        if i % 20 == 0:
            live += 1
        else:
            timers.append(t)
    for t in timers:
        t.cancel()
    assert sim.pending_events < EVENTS // 2, "compaction did not shrink storage"
    sim.run()
    assert sim.events_processed == live
    return sim


def run_dispose_cell(backend):
    """Cancel-and-dispose throughput at the EventQueue level.

    Returns timers/sec over the timed region (cancel 95% of the churn
    population, then drain every live churn timer below the bound).
    """
    queue = _make_queue(backend)
    order = itertools.count()
    # Far-future live floor: full-depth heap sifts per pop; never
    # scanned by the wheel.  Also keeps the dead ratio below the
    # compaction threshold so neither backend compacts mid-cell.
    for i in range(DISPOSE_FLOOR):
        deadline = 3600.0 + i * 1e-3
        queue.push((deadline, next(order), Timer(deadline, _noop, ())))
    entries = []
    now = 0.0
    for i in range(DISPOSE_CHURN):
        if i % 8 == 0:
            now += 0.001
        deadline = now + 0.2
        entry = (deadline, next(order), Timer(deadline, _noop, ()))
        queue.push(entry)
        entries.append(entry)
    bound = entries[-1][0] - 0.05  # live tail: never peek past the churn
    start = time.perf_counter()  # replint: allow(wallclock) -- benchmark harness measures host-CPU throughput
    for i, entry in enumerate(entries):
        if i % 20 != 0:
            entry[2]._cancelled = True
            queue.on_cancel()
    while True:
        head = queue.peek()
        if head is None or head[0] > bound:
            break
        queue.pop()
    elapsed = time.perf_counter() - start  # replint: allow(wallclock) -- benchmark harness measures host-CPU throughput
    assert queue.compactions == 0, "floor should keep the dead ratio subcritical"
    return DISPOSE_CHURN / elapsed


def test_bench_sim_engine(benchmark):
    def timed_rate(loop, backend):
        start = time.perf_counter()  # replint: allow(wallclock) -- benchmark harness measures host-CPU throughput
        sim = loop(backend)
        return EVENTS / (time.perf_counter() - start), sim  # replint: allow(wallclock) -- benchmark harness measures host-CPU throughput

    def experiment():
        out = {}
        for backend in BACKENDS:
            out[f"{backend}_fire_rate"] = max(
                timed_rate(run_fire_loop, backend)[0] for _ in range(TRIALS)
            )
            churn = [timed_rate(run_churn_loop, backend) for _ in range(TRIALS)]
            out[f"{backend}_churn_rate"] = max(rate for rate, _sim in churn)
            out[f"{backend}_compactions"] = churn[0][1].compactions
        ratios = []
        for _trial in range(TRIALS):
            heap_rate = run_dispose_cell("heap")
            wheel_rate = run_dispose_cell("wheel")
            out["heap_dispose_rate"] = max(heap_rate, out.get("heap_dispose_rate", 0.0))
            out["wheel_dispose_rate"] = max(
                wheel_rate, out.get("wheel_dispose_rate", 0.0)
            )
            ratios.append(wheel_rate / heap_rate)
        out["dispose_ratio"] = statistics.median(ratios)
        return out

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)
    table = Table(
        "Simulator scheduling throughput (per backend)",
        ["load", "heap (ops/s)", "wheel (ops/s)", "floor"],
        [
            (
                "schedule+fire",
                f"{results['heap_fire_rate']:.0f}",
                f"{results['wheel_fire_rate']:.0f}",
                f"{MIN_FIRE_RATE:.0f}",
            ),
            (
                "95% churn",
                f"{results['heap_churn_rate']:.0f}",
                f"{results['wheel_churn_rate']:.0f}",
                f"{MIN_CHURN_RATE:.0f}",
            ),
            (
                "dispose cell",
                f"{results['heap_dispose_rate']:.0f}",
                f"{results['wheel_dispose_rate']:.0f}",
                f"wheel>={MIN_DISPOSE_RATIO:.0f}x heap",
            ),
        ],
    )
    emit(Report(
        "sim_engine",
        {
            "events": EVENTS,
            "dispose_floor": DISPOSE_FLOOR,
            "dispose_churn": DISPOSE_CHURN,
        },
        [
            {
                "label": f"fire:{backend}",
                "metrics": {"events_per_sec": results[f"{backend}_fire_rate"]},
            }
            for backend in BACKENDS
        ]
        + [
            {
                "label": f"churn:{backend}",
                "metrics": {
                    "timers_per_sec": results[f"{backend}_churn_rate"],
                    "compactions": float(results[f"{backend}_compactions"]),
                },
            }
            for backend in BACKENDS
        ]
        + [
            {
                "label": f"dispose:{backend}",
                "metrics": {"timers_per_sec": results[f"{backend}_dispose_rate"]},
            }
            for backend in BACKENDS
        ]
        + [
            {
                "label": "dispose:ratio",
                "metrics": {"wheel_over_heap": results["dispose_ratio"]},
            }
        ],
        tables=[table],
    ))
    for backend in BACKENDS:
        assert results[f"{backend}_compactions"] >= 1, results
        assert results[f"{backend}_fire_rate"] > MIN_FIRE_RATE, results
        assert results[f"{backend}_churn_rate"] > MIN_CHURN_RATE, results
    assert results["dispose_ratio"] >= MIN_DISPOSE_RATIO, results
