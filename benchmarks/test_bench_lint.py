"""Linter wall-time guard: the semantic plane must stay interactive.

One full ``--semantic`` pass over ``src/`` — syntactic rules, the
interprocedural dataflow rules (seq-taint, checksum-staleness,
mutation-escape) and the protocol model checker — timed end to end,
with the per-rule split recorded so a regression names its culprit.
The committed artifact makes lint-time trajectories visible across
commits the same way the throughput benches do; project-summary
fixpoints are charged under ``<rule>:project``.
"""

import time

from benchmarks.conftest import emit
from repro.analysis.engine import LintEngine
from repro.harness.report import Report, Table

PATHS = ("src",)

#: Hard ceiling on one semantic pass.  The interactive budget: a lint
#: that takes minutes stops being run before commits.
MAX_WALL_S = 120.0


def run_pass():
    engine = LintEngine(semantic=True)
    start = time.perf_counter()  # replint: allow(wallclock) -- benchmark harness measures host wall time
    violations = engine.lint_paths(list(PATHS))
    elapsed = time.perf_counter() - start  # replint: allow(wallclock) -- benchmark harness measures host wall time
    assert violations == [], [str(v) for v in violations]
    return engine, elapsed


def test_bench_lint(benchmark):
    def experiment():
        engine, elapsed = run_pass()
        out = {
            "wall_s": elapsed,
            "files": float(engine.files_checked),
        }
        for name, seconds in engine.rule_seconds.items():
            out[f"rule:{name}"] = seconds
        return out

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)
    rules = sorted(
        (k[len("rule:"):], v) for k, v in results.items()
        if k.startswith("rule:")
    )
    table = Table(
        "Semantic lint pass (src/)",
        ["rule", "seconds"],
        [("TOTAL", f"{results['wall_s']:.3f}")]
        + [(name, f"{seconds:.3f}") for name, seconds in rules],
    )
    emit(Report(
        "lint",
        {"paths": "src", "semantic": True},
        [
            {
                "label": "lint total",
                "metrics": {
                    "wall_s": results["wall_s"],
                    "files": results["files"],
                },
            }
        ]
        + [
            {"label": f"rule {name}", "metrics": {"wall_s": seconds}}
            for name, seconds in rules
        ],
        tables=[table],
    ))
    assert results["wall_s"] <= MAX_WALL_S, results
