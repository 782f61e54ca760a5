"""Golden over ``examples/``: every example runs and prints the same bytes.

Each example is a seeded end-to-end run of one testbed (the pair, the
chain, the fleet, the WAN), so its stdout is a pure function of the code.
Each runs in a fresh interpreter with ``PYTHONPATH=src``, as a reader
would run it, from an empty working directory; it must exit 0 and print
what was recorded here.  A change that moves code around must leave
these digests alone; one that changes what an example prints re-records
the digest from the failure message and says why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

# example file -> sha256 of its stdout
GOLDEN = {
    "chain_replication.py":
        "de77e427e96d5df12474f250586b7593fa3f845c50350a41f845a7b1368971e4",
    "cluster_store.py":
        "9e00abdd37933e3cdc8ddaa8f9dc72776aa8c8ce5662c99e21764334ff2b9080",
    "failover_anatomy.py":
        "348cbaa9984dfdf0021b47c69ceadc6712fd19d1ea9687bc218fd01213ddd7f5",
    "ftp_over_wan.py":
        "04571b38e188c02f51da85925e65ef752a2ee1a2dcda2bbfe966b591879d2da9",
    "online_store.py":
        "9036ae0b8cbb8d86338a486e483c9597e23cdd37190714f9803abf4712d19b0a",
    "pooled_store.py":
        "d81922baf893e302c870b118526c932b88a4137d5b40eddcd69b653c9d4df1b8",
    "quickstart.py":
        "2830da57d03b9ea8ddba879457f1b70f4112df3a81efed5aa9ee2451edc83a49",
}


def test_every_example_is_pinned():
    examples = (ROOT / "examples").glob("*.py")
    assert sorted(GOLDEN) == sorted(path.name for path in examples)


@pytest.mark.parametrize("example", sorted(GOLDEN))
def test_example_output_matches_the_recorded_digest(example, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(ROOT / "examples" / example)],
        cwd=tmp_path, env=env, capture_output=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr.decode()
    digest = hashlib.sha256(run.stdout).hexdigest()
    assert digest == GOLDEN[example], (
        f"examples/{example} printed (sha256 {digest}):\n{run.stdout.decode()}")
    assert not os.listdir(tmp_path), f"examples/{example} left files behind"
