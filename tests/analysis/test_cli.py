"""CLI surface: --semantic, --bench-dir, exit codes."""

import json

import pytest

from repro.analysis.cli import main
from repro.obs.bench import load_bench_artifact

BAD = "def f(seq):\n    return seq + 1\n"
LAUNDERED = (
    "def f(conn):\n"
    "    edge = conn.snd_una\n"
    "    return edge + 1\n"
)


@pytest.fixture
def tree(tmp_path):
    victim = tmp_path / "src" / "repro" / "tcp"
    victim.mkdir(parents=True)
    return victim


def test_clean_tree_exits_zero(tree, tmp_path, capsys):
    (tree / "fake.py").write_text("x = 1\n")
    assert main([str(tmp_path / "src")]) == 0


def test_violations_exit_nonzero(tree, tmp_path, capsys):
    (tree / "fake.py").write_text(BAD)
    assert main([str(tmp_path / "src")]) == 1
    out = capsys.readouterr().out
    assert "seq-arith" in out


def test_semantic_flag_enables_dataflow_rules(tree, tmp_path, capsys):
    (tree / "fake.py").write_text(LAUNDERED)
    assert main([str(tmp_path / "src")]) == 0
    assert main([str(tmp_path / "src"), "--semantic"]) == 1
    assert "seq-taint" in capsys.readouterr().out


def test_json_format_lists_semantic_rules(tree, tmp_path, capsys):
    (tree / "fake.py").write_text("x = 1\n")
    main([str(tmp_path / "src"), "--semantic", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert "protocol" in payload["rules"]
    assert "seq-taint" in payload["rules"]


def test_list_rules_includes_semantic_only_with_flag(capsys):
    main(["--list-rules"])
    without = capsys.readouterr().out
    main(["--list-rules", "--semantic"])
    with_flag = capsys.readouterr().out
    assert "seq-taint" not in without
    assert "seq-taint" in with_flag
    assert "protocol" in with_flag


def test_bench_dir_writes_lint_artifact(tree, tmp_path, capsys):
    (tree / "fake.py").write_text("x = 1\n")
    bench = tmp_path / "bench"
    bench.mkdir()
    main([str(tmp_path / "src"), "--semantic", "--bench-dir", str(bench)])
    doc = load_bench_artifact(bench / "BENCH_lint.json")
    labels = {row["label"] for row in doc["results"]}
    assert "lint total" in labels
    assert any(label.startswith("rule seq-taint") for label in labels)
    assert any(label.endswith(":project") for label in labels)
    total = next(r for r in doc["results"] if r["label"] == "lint total")
    assert total["metrics"]["files"] == 1.0
    assert doc["params"]["semantic"] is True
