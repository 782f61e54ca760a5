"""Tracing-overhead guard: watching must be (nearly) free.

Four capacity cells through the same seeded storm, varying only the
span sample rate:

* ``off``   — tracing absent (the production default);
* ``rate0`` — a tracer threaded through every constructor but sampling
  at 0: each hot path pays exactly one ``enabled`` branch.  The
  acceptance bar lives here: ≥ 95% of the untraced cell's event
  throughput (median ratio over the trials);
* ``rate1pct`` — the always-on operational setting;
* ``rate100pct`` — every trace sampled, the worst case.

Throughput is simulator events per host-CPU second — the denominator
every other bench in this suite uses — so the committed baseline makes
regressions in the instrumentation (a forgotten guard, an eager
allocation) trip the guard even when the sim itself got faster.
"""

import statistics
import time

from benchmarks.conftest import FULL, emit
from repro.cluster import run_capacity
from repro.harness.report import Report, Table

SESSIONS = 96 if FULL else 24
TRIALS = 3  # best-of-N per cell: the guard compares these, so damp noise

#: Hard floor on rate-0 throughput relative to tracing-off (median of
#: per-trial ratios).  The ISSUE's acceptance bar: ≤ 5% regression.
MIN_RATE0_RATIO = 0.95

CELLS = (
    ("off", None),
    ("rate0", 0.0),
    ("rate1pct", 0.01),
    ("rate100pct", 1.0),
)


def run_cell(sample_rate):
    kwargs = dict(
        shards=2, clients=2, sessions=SESSIONS, seed=11,
        ramp=0.2, hold_for=0.4, storm_at=0.3, storm_fraction=0.5,
    )
    if sample_rate is not None:
        kwargs["span_sample_rate"] = sample_rate
    start = time.perf_counter()  # replint: allow(wallclock) -- benchmark harness measures host-CPU throughput
    result = run_capacity(**kwargs)
    elapsed = time.perf_counter() - start  # replint: allow(wallclock) -- benchmark harness measures host-CPU throughput
    assert result.stats.sessions_failed == 0
    return result.fleet.sim.events_processed / elapsed


def test_bench_obs_overhead(benchmark):
    def experiment():
        out = {}
        ratios = []
        for _trial in range(TRIALS):
            rates = {}
            for label, sample_rate in CELLS:
                rate = run_cell(sample_rate)
                rates[label] = rate
                key = f"{label}_events_per_sec"
                out[key] = max(rate, out.get(key, 0.0))
            ratios.append(rates["rate0"] / rates["off"])
        out["rate0_over_off"] = statistics.median(ratios)
        return out

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)
    table = Table(
        "Span-tracing overhead (capacity storm cell)",
        ["cell", "events/s", "vs off"],
        [
            (
                label,
                f"{results[f'{label}_events_per_sec']:.0f}",
                f"{results[f'{label}_events_per_sec'] / results['off_events_per_sec']:.3f}",
            )
            for label, _rate in CELLS
        ],
    )
    emit(Report(
        "obs_overhead",
        {"sessions": SESSIONS, "shards": 2, "clients": 2, "seed": 11},
        [
            {
                "label": f"capacity:{label}",
                "metrics": {
                    "events_per_sec": results[f"{label}_events_per_sec"]
                },
            }
            for label, _rate in CELLS
        ]
        + [
            {
                "label": "overhead:ratio",
                "metrics": {"rate0_over_off": results["rate0_over_off"]},
            }
        ],
        tables=[table],
    ))
    assert results["rate0_over_off"] >= MIN_RATE0_RATIO, results
