"""Smoke tests for the command-line experiment runner."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness import cli

SRC = Path(__file__).resolve().parents[2] / "src"


def test_setup_command_prints_table(capsys):
    assert cli.main(["setup", "--quick", "--trials", "5"]) == 0
    out = capsys.readouterr().out
    assert "E1" in out
    assert "standard" in out and "failover" in out


def test_fig5_command_with_small_stream(capsys):
    assert cli.main(["fig5", "--bytes", "1500000"]) == 0
    out = capsys.readouterr().out
    assert "Fig 5" in out
    assert "7834 / 8708" in out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        cli.main(["definitely-not-an-experiment"])


def test_chain_depth_runner_monotone():
    from repro.harness.experiments import measure_chain_depth

    one = measure_chain_depth(1, total_bytes=800_000)
    two = measure_chain_depth(2, total_bytes=800_000)
    assert one > two > 0


@pytest.mark.parametrize("argv", [
    ["-m", "repro", "adversary", "--cells", "1"],
    ["-c", "from repro.harness import CellSpec, run_cell;"
           " r = run_cell(CellSpec('midpoint', 'crash-primary'));"
           " assert r.ok, r.describe()"],
], ids=["adversary-cli", "chaos-cell"])
def test_planes_run_without_the_test_tree(tmp_path, argv):
    """What ships must run where it is installed: only ``src`` on the path,
    an empty working directory, so ``import tests`` cannot succeed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run(
        [sys.executable, *argv], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
