"""Self-hosting: the repo's own tree must satisfy its own linter.

This is the enforcement half of the static correctness contract
(DESIGN.md §8): ``src/`` and ``tests/`` lint clean, and the CLI front
ends agree with the library API.
"""

import json
from pathlib import Path

from repro.analysis import LintEngine
from repro.analysis.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_and_tests_lint_clean():
    engine = LintEngine()
    violations = engine.lint_paths(
        [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")]
    )
    assert violations == [], "\n".join(str(v) for v in violations)
    # Guard against a path/exclusion bug silently linting nothing.
    assert engine.files_checked > 100


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


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("seq-arith", "rng-source", "wallclock", "set-order",
                 "sim-import", "checksum-pair", "handler-except",
                 "eager-trace-arg"):
        assert rule in out
