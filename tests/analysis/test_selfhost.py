"""Self-hosting: the repo's own tree must satisfy its own linter.

This is the enforcement half of the static correctness contract
(DESIGN.md §8): ``src/`` and ``tests/`` lint clean modulo the checked-in
baseline, and the CLI front ends agree with the library API.
"""

import json
from pathlib import Path

from repro.analysis import LintEngine, load_baseline
from repro.analysis.baseline import DEFAULT_BASELINE_NAME
from repro.analysis.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


def _repo_baseline():
    path = REPO_ROOT / DEFAULT_BASELINE_NAME
    return load_baseline(str(path)) if path.exists() else None


def test_src_and_tests_lint_clean():
    engine = LintEngine(baseline=_repo_baseline())
    violations = engine.lint_paths(
        [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")]
    )
    assert violations == [], "\n".join(str(v) for v in violations)
    # Guard against a path/exclusion bug silently linting nothing.
    assert engine.files_checked > 100


def test_checked_in_baseline_entries_are_documented():
    baseline = _repo_baseline()
    if baseline is None:
        return
    for entry in baseline.entries:
        assert entry.why.strip(), (
            f"baseline entry {entry.path} [{entry.rule}] needs a `why`"
        )


def test_fixture_corpus_is_excluded_from_tree_walks():
    engine = LintEngine()
    violations = engine.lint_paths([str(Path(__file__).parent)])
    bad = [v for v in violations if "fixtures" in v.path]
    assert bad == [], "fixtures/ must not be walked by the self-host run"


# -- CLI front end -------------------------------------------------------


def test_cli_clean_tree_exits_zero(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    assert main(["src/repro/analysis"]) == 0
    assert "clean" in capsys.readouterr().err


def test_cli_json_format(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    assert main(["--format=json", "src/repro/analysis"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"] == []
    assert payload["checked_files"] > 0
    assert "seq-arith" in payload["rules"]


def test_cli_dirty_file_exits_one(tmp_path, monkeypatch, capsys):
    victim = tmp_path / "src" / "repro" / "tcp"
    victim.mkdir(parents=True)
    (victim / "fake.py").write_text("def f(seq):\n    return seq + 1\n")
    monkeypatch.chdir(tmp_path)
    assert main(["src"]) == 1
    out = capsys.readouterr().out
    assert "[seq-arith]" in out


def test_cli_write_baseline_then_load(tmp_path, monkeypatch, capsys):
    victim = tmp_path / "src" / "repro" / "tcp"
    victim.mkdir(parents=True)
    (victim / "fake.py").write_text("def f(seq):\n    return seq + 1\n")
    monkeypatch.chdir(tmp_path)
    assert main(["--write-baseline", "grandfather.json", "src"]) == 0
    capsys.readouterr()
    # Entries start with an empty `why`, which the loader flags — the
    # baseline is documentation, so exit stays non-zero until it's written.
    assert main(["--baseline", "grandfather.json", "src"]) == 1
    assert "[baseline]" in capsys.readouterr().out
    payload = json.loads((tmp_path / "grandfather.json").read_text())
    payload["entries"][0]["why"] = "grandfathered pending refactor"
    (tmp_path / "grandfather.json").write_text(json.dumps(payload))
    assert main(["--baseline", "grandfather.json", "src"]) == 0


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("seq-arith", "rng-source", "wallclock", "set-order",
                 "sim-import", "checksum-pair", "handler-except",
                 "eager-trace-arg"):
        assert rule in out
