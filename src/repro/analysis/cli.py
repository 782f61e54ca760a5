"""Command-line front end: ``python -m repro.analysis`` / ``repro lint``."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from repro.analysis.baseline import (
    DEFAULT_BASELINE_NAME,
    Baseline,
    baseline_from_violations,
    load_baseline,
    merge_baseline,
    write_baseline,
)
from repro.analysis.engine import LintEngine
from repro.analysis.rules import ALL_RULES, SEMANTIC_RULES


def lint_command(parser: argparse.ArgumentParser) -> None:
    """the static-analysis contract (== python -m repro.analysis)"""
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories (default: src tests)")
    parser.add_argument("--format", choices=("human", "json"), default="human")
    parser.add_argument("--semantic", action="store_true",
                        help="also run the interprocedural dataflow rules"
                             " (seq-taint, checksum-staleness,"
                             " mutation-escape) and the protocol"
                             " state-machine checker")
    parser.add_argument("--baseline", default=None,
                        help=f"baseline file (default: {DEFAULT_BASELINE_NAME}"
                             " if present)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore any baseline file")
    parser.add_argument("--write-baseline", metavar="PATH", default=None,
                        help="write current findings as a grandfather"
                             " baseline (fill in each `why` by hand)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline in place canonically:"
                             " drop stale entries, add new findings with"
                             " empty `why` stubs, keep documented reasons")
    parser.add_argument("--bench-dir", metavar="DIR", default=None,
                        help="write a BENCH_lint.json wall-time artifact"
                             " here (or to $REPRO_BENCH_DIR when set)")
    parser.add_argument("--list-rules", action="store_true")
    parser.set_defaults(run=run)


def _resolve_baseline_path(args: argparse.Namespace) -> str:
    return args.baseline or DEFAULT_BASELINE_NAME


def _resolve_baseline(args: argparse.Namespace) -> Optional[Baseline]:
    if args.no_baseline:
        return None
    if args.baseline:
        return load_baseline(args.baseline)
    if os.path.exists(DEFAULT_BASELINE_NAME):
        return load_baseline(DEFAULT_BASELINE_NAME)
    return None


def _write_bench_artifact(engine: LintEngine, elapsed: float,
                          violations: int, directory: Optional[str]) -> str:
    from repro.obs.bench import write_bench_artifact
    results = [{
        "label": "lint total",
        "metrics": {
            "wall_s": elapsed,
            "files": float(engine.files_checked),
            "violations": float(violations),
        },
    }]
    for name in sorted(engine.rule_seconds):
        results.append({
            "label": f"rule {name}",
            "metrics": {"wall_s": engine.rule_seconds[name]},
        })
    return write_bench_artifact(
        name="lint",
        params={
            "rules": len(engine.rules),
            "semantic": any(
                getattr(rule, "needs_project", False) for rule in engine.rules
            ),
        },
        results=results,
        directory=directory,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST linter for seq-wrap arithmetic, determinism and"
                    " sim-safety, plus the --semantic CFG/dataflow and"
                    " state-machine checks (see DESIGN.md §8, §13).",
    )
    lint_command(parser)
    args = parser.parse_args(argv)
    return run(args)


def run(args: argparse.Namespace) -> int:
    """Lint as *args* (a ``lint_command`` namespace) says; the exit status."""
    if args.list_rules:
        rule_classes = list(ALL_RULES)
        if args.semantic:
            rule_classes += list(SEMANTIC_RULES)
        for rule_cls in rule_classes:
            print(f"{rule_cls.name:20} {rule_cls.description}")
        return 0
    paths = args.paths or ["src", "tests"]
    if args.update_baseline:
        # Re-lint without the baseline filter so existing grandfathered
        # findings stay visible to the merge, then rewrite canonically.
        engine = LintEngine(semantic=args.semantic)
        raw = engine.lint_paths(paths)
        baseline_path = _resolve_baseline_path(args)
        old = load_baseline(baseline_path) if os.path.exists(baseline_path) else None
        merged = merge_baseline(old, raw)
        write_baseline(merged, baseline_path)
        undocumented = sum(1 for e in merged.entries if not e.why.strip())
        print(f"wrote {len(merged.entries)} baseline entries to"
              f" {baseline_path} ({undocumented} with empty `why` to"
              " document before committing)")
        return 0
    engine = LintEngine(baseline=_resolve_baseline(args), semantic=args.semantic)
    start = time.perf_counter()  # replint: allow(wallclock) -- lint bench reporting only
    violations = engine.lint_paths(paths)
    elapsed = time.perf_counter() - start  # replint: allow(wallclock) -- lint bench reporting only
    bench_dir = args.bench_dir or os.environ.get("REPRO_BENCH_DIR")
    if bench_dir:
        artifact = _write_bench_artifact(engine, elapsed, len(violations), bench_dir)
        print(f"wrote {artifact}", file=sys.stderr)
    if args.write_baseline:
        baseline = baseline_from_violations(violations)
        write_baseline(baseline, args.write_baseline)
        print(f"wrote {len(baseline.entries)} baseline entries to"
              f" {args.write_baseline}; document each `why` before"
              " committing")
        return 0
    if args.format == "json":
        payload = {
            "checked_files": engine.files_checked,
            "rules": [rule.name for rule in engine.rules],
            "violations": [v.as_dict() for v in violations],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for violation in violations:
            print(violation)
        suffix = "" if engine.files_checked == 1 else "s"
        status = "clean" if not violations else f"{len(violations)} violation(s)"
        print(f"repro.analysis: {engine.files_checked} file{suffix} checked,"
              f" {status}", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
