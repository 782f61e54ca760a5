"""benchmarks/bench_guard.py: it must compare against the right file or say
which one is missing — never quietly against some other baseline."""

import json

import pytest

from benchmarks import bench_guard


def _artifact(path, rows):
    path.write_text(json.dumps({"results": [
        {"label": label, "metrics": metrics} for label, metrics in rows
    ]}))
    return str(path)


def test_unmatched_fresh_artifact_names_the_missing_baseline(tmp_path, capsys):
    fresh = _artifact(tmp_path / "BENCH_setup.json",
                      [("standard", {"median_us": 295.0})])
    assert bench_guard.main(["--fresh", fresh]) != 0
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert str(bench_guard.BASELINE_DIR / "BENCH_setup.json") in err
    assert "--baseline" in err
    assert "REGRESSION" not in err


def test_missing_fresh_artifact_is_one_line_not_a_traceback(tmp_path, capsys):
    fresh = str(tmp_path / "BENCH_sim_engine.json")
    assert bench_guard.main(["--fresh", fresh]) != 0
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert fresh in err and "--baseline" in err


def test_explicit_baseline_is_honoured(tmp_path, capsys):
    baseline = _artifact(tmp_path / "base.json",
                         [("fire:heap", {"events_per_sec": 1000.0})])
    ok = _artifact(tmp_path / "BENCH_ok.json",
                   [("fire:heap", {"events_per_sec": 950.0})])
    slow = _artifact(tmp_path / "BENCH_slow.json",
                     [("fire:heap", {"events_per_sec": 800.0})])
    assert bench_guard.main(["--fresh", ok, "--baseline", baseline]) == 0
    assert bench_guard.main(["--fresh", slow, "--baseline", baseline]) == 1
    assert "fire:heap/events_per_sec" in capsys.readouterr().err


@pytest.mark.parametrize(
    "baseline", sorted(p.name for p in bench_guard.BASELINE_DIR.glob("BENCH_*.json"))
)
def test_committed_baselines_pass_against_themselves(baseline, capsys):
    assert bench_guard.main(["--fresh", str(bench_guard.BASELINE_DIR / baseline)]) == 0
