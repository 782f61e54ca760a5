"""Smoke tests for the command-line experiment runner."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness import cli

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


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


def test_bench_dir_is_created_on_demand(tmp_path, capsys):
    """A mistyped --bench-dir must not cost the run that preceded it."""
    target = tmp_path / "nope" / "dir"
    assert cli.main(["setup", "--quick", "--trials", "2",
                     "--bench-dir", str(target)]) == 0
    assert (target / "BENCH_setup.json").exists()
    assert f"[bench] wrote {target}" in capsys.readouterr().out


@pytest.mark.parametrize("argv, command", [
    (["setup", "pcap"], "setup"),
    (["ablation", "--shards", "99", "--export", "x", "--cluster"], "ablation"),
    (["fig3", "--seed", "5"], "fig3"),
])
def test_arguments_a_command_does_not_read_are_rejected(argv, command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    assert f"`{command}` does not take {' '.join(argv[1:])}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, complaint", [
    (["obs", "report", "--shards", "99", "--storm-at", "3"],
     "--shards --storm-at: only read with --cluster"),
    (["obs", "report", "--quick"], "--quick: only read with --cluster"),
    (["obs", "report", "--cluster", "--bytes", "5"],
     "--bytes: not read with --cluster"),
    (["--seed", "3", "obs"], "--seed goes after the command word"),
])
def test_flags_a_view_does_not_read_are_rejected_before_it_runs(
        argv, complaint, capsys, monkeypatch):
    from repro.obs import views

    monkeypatch.setattr(views, "report_view", None)  # must not be reached
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    assert complaint in capsys.readouterr().err


@pytest.mark.parametrize("argv, canonical", [
    (["--quick", "setup", "--trials", "2"], ["setup", "--trials", "2", "--quick"]),
    (["--bench-dir", "d", "fig5"], ["fig5", "--bench-dir", "d"]),
    (["obs"], ["obs", "report"]),
    (["obs", "--seed", "3", "--bytes", "9"],
     ["obs", "report", "--seed", "3", "--bytes", "9"]),
])
def test_spellings_the_flat_parser_took_still_parse(argv, canonical):
    """Shared flags before the command word, and `obs` without a view."""
    def parsed(words):
        values = vars(cli.parse_args(words))
        del values["run"]  # a closure per parser build
        return values

    assert parsed(argv) == parsed(canonical)


def test_adversary_seed_zero_means_seed_zero(capsys):
    assert cli.main(["adversary", "--seed", "0", "--cells", "1"]) == 0
    assert "(1 cells, seed=0)" in capsys.readouterr().out


def test_a_command_imports_only_its_own_plane():
    """`repro setup` must keep working when another plane is broken."""
    planes = ("repro.cluster", "repro.adversary", "repro.clients", "repro.analysis")
    code = (
        "import sys; from repro.harness import cli;"
        " cli.parse_args(['setup', '--quick']);"
        f" print([m for m in sys.modules if m.startswith({planes!r})])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60,
    )
    assert done.stdout.strip() == "[]", done.stdout + done.stderr


DOCUMENTS = ["README.md", "DESIGN.md", "EXPERIMENTS.md",
             ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml"]

# `python -m repro <words>` anywhere, or `repro <words>` opening a code
# span; the words end at the first shell operator, comment, placeholder
# (<exp>, [--opt]) or closing backtick.
INVOCATION = re.compile(r"(?:python3? -m repro|`repro) ((?:[\w./=:-]+ *)+)")


def documented_invocations():
    for document in DOCUMENTS:
        text = (ROOT / document).read_text().replace("\\\n", " ")
        found = {" ".join(match.group(1).split())
                 for match in INVOCATION.finditer(text)} - {"--help"}
        assert found, f"no `repro ...` command line found in {document}"
        for line in sorted(found):
            yield pytest.param(line.split(), id=f"{document}: {line}")


@pytest.mark.parametrize("argv", documented_invocations())
def test_every_documented_invocation_still_parses(argv):
    """Nothing runs: stricter per-command parsers must not strand a
    command line the docs, the verify recipe or CI still show."""
    args = cli.parse_args(argv)
    assert args.command == argv[0]


def test_design_index_matches_the_registry():
    """DESIGN.md §4's Command column is checked, not hand-kept: every
    E-row names the command registered for that experiment id."""
    section = (ROOT / "DESIGN.md").read_text().split("## 4. Experiment index")[1]
    documented = {}
    for row in section.split("\n## ")[0].splitlines():
        cells = [cell.strip() for cell in row.split("|")]
        if len(cells) > 2 and re.match(r"E\d+\b", cells[1]):
            documented[cells[1].split()[0]] = cells[2].strip("`").split()[-1]
    registered = {}
    for name in cli.EXPERIMENTS:
        for experiment_id in cli.declaration(name).__doc__.split()[0].split("/"):
            registered[experiment_id] = name
    assert documented == registered


def test_ci_smoke_matrix_names_real_paths_and_commands():
    """The five plane smoke jobs are one job whose differences are data;
    data can rot silently, so hold it to the tree and the registry."""
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github/workflows/ci.yml").read_text())
    entries = workflow["jobs"]["smoke"]["strategy"]["matrix"]["include"]
    assert [e["plane"] for e in entries] == [
        "chaos", "cluster", "adversary", "obs", "clients"]
    for entry in entries:
        for path in (entry.get("tests", "") + " " + entry.get("shard", "")).split():
            assert (ROOT / path).exists(), (entry["plane"], path)
        for folder, key in (("examples", "example"), ("benchmarks", "guard_bench")):
            if key in entry:
                assert (ROOT / folder / entry[key]).is_file(), (entry["plane"], key)
        argv = entry["cell"].replace("OUT", "artifacts").split()
        assert argv[0] in cli.COMMANDS, entry["plane"]
        cli.parse_args(argv)
    # `x | tee f` exits with tee's status unless the step says otherwise:
    # a crashing example or cell must not leave the job green.
    for step in workflow["jobs"]["smoke"]["steps"]:
        script = step.get("run", "")
        if "| tee" in script or "matrix.extra" in script:
            assert script.startswith("set -o pipefail\n"), step["name"]


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
