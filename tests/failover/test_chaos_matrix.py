"""The chaos matrix: fault type × lifecycle point × seed (EXPERIMENTS.md).

The full sweeps are marked ``chaos`` and excluded from the default run
(see ``pyproject.toml``); run them with::

    PYTHONPATH=src python -m pytest tests/failover/test_chaos_matrix.py -m chaos

A small deterministic subset of representative cells runs in tier-1 so
the harness itself cannot rot, and a seeded smoke shard gives CI a
bounded slice of the full grid (``-m chaos -k smoke``, sized by the
``CHAOS_SMOKE_CELLS`` environment variable).

Every cell asserts the full §2 invariant set via ``InvariantChecker``;
a failure message carries the fault-plane recipe needed to replay the
cell bit-for-bit (see ``tests/sim/test_rng_isolation.py`` for the
determinism guarantee itself).
"""

import os
import random

import pytest

from repro.harness.cells import clean_duration
from repro.harness.chaos import (
    CRASH_FRACTIONS,
    HOST_FAULTS,
    PACKET_FAULTS,
    PACKET_POINTS,
    REINTEGRATE_FAULTS,
    REINTEGRATE_SIZE,
    CellSpec,
    host_fault_matrix,
    lifecycle_matrix,
    reintegration_matrix,
    run_cell,
    run_matrix,
    summarize,
)


def _assert_all_ok(results):
    assert all(r.ok for r in results), summarize(results)


def test_matrix_axes_meet_the_floor():
    """The grid the paper's claim is swept over: ≥20 points, ≥3 faults."""
    assert len(PACKET_POINTS) >= 20
    assert len(PACKET_FAULTS) >= 3
    assert len(HOST_FAULTS) >= 3
    assert len(CRASH_FRACTIONS) >= 5


# ----------------------------------------------------------------------
# tier-1: representative cells, always on
# ----------------------------------------------------------------------

REPRESENTATIVE = [
    # handshake, steady-state, wrap-crossing and teardown packet faults
    CellSpec("syn", "drop"),
    CellSpec("handshake-ack", "duplicate"),
    CellSpec("data-8", "reorder"),
    CellSpec("byte-wrap", "drop"),
    CellSpec("ack-5", "corrupt"),
    CellSpec("client-fin", "delay"),
    CellSpec("snoop-data-5", "drop"),
    CellSpec("data-25", "duplicate", direction="download"),
    # host faults at the lifecycle points that historically broke
    CellSpec("midpoint", "crash-primary"),
    CellSpec("late", "partition"),
    CellSpec("teardown", "partition"),
    CellSpec("teardown", "crash-primary"),
    # reintegration: mid-stream rejoin, and rejoin followed by a second
    # crash of the original survivor
    CellSpec("early", "crash-restart-reintegrate", size=REINTEGRATE_SIZE),
    CellSpec("ramp", "reintegrate-crash-again", size=REINTEGRATE_SIZE),
]


@pytest.mark.parametrize("spec", REPRESENTATIVE, ids=str)
def test_representative_cell(spec):
    result = run_cell(spec)
    assert result.ok, result.describe()


# ----------------------------------------------------------------------
# full sweeps (chaos-marked)
# ----------------------------------------------------------------------


def test_host_fault_shard_measures_the_clean_cell_once():
    """The timing anchor is a pure function of (seed, direction, size): a
    shard shares one clean transfer, and sharing it changes nothing."""
    shard = host_fault_matrix(
        faults=("crash-primary",), fractions=("early", "midpoint", "late")
    )
    clean_duration.cache_clear()
    shared = run_matrix(shard)
    info = clean_duration.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    for spec, cell in zip(shard, shared):
        clean_duration.cache_clear()
        alone = run_cell(spec)
        assert clean_duration.cache_info().misses == 1
        assert (alone.duration, alone.fires, alone.acked, alone.delivered) == (
            cell.duration, cell.fires, cell.acked, cell.delivered), str(spec)
    _assert_all_ok(shared)


@pytest.mark.chaos
def test_full_packet_matrix_upload():
    _assert_all_ok(run_matrix(lifecycle_matrix(seeds=(1, 2))))


@pytest.mark.chaos
def test_full_packet_matrix_download():
    _assert_all_ok(run_matrix(lifecycle_matrix(seeds=(1,), direction="download")))


@pytest.mark.chaos
def test_full_host_fault_matrix():
    _assert_all_ok(run_matrix(host_fault_matrix(seeds=(1, 2))))


@pytest.mark.chaos
def test_full_reintegration_matrix():
    """The reintegration-point sweep: crash → restart → rejoin (and a
    second crash) at the same eight lifetime fractions as the crash
    sweep.  Every cell is invariant-checked and carries a replayable
    fault-plane recipe; each must also actually have reintegrated."""
    results = run_matrix(reintegration_matrix(seeds=(1,)))
    _assert_all_ok(results)
    assert all(r.reintegrations >= 1 for r in results), summarize(results)


# ----------------------------------------------------------------------
# CI smoke shard: a seeded random slice of the whole grid
# ----------------------------------------------------------------------


@pytest.mark.chaos
def test_chaos_smoke_shard():
    seed = int(os.environ.get("CHAOS_SMOKE_SEED", "1"))
    count = int(os.environ.get("CHAOS_SMOKE_CELLS", "16"))
    grid = (
        lifecycle_matrix(seeds=(seed,))
        + host_fault_matrix(seeds=(seed,))
        + reintegration_matrix(seeds=(seed,))
    )
    shard = random.Random(seed).sample(grid, k=min(count, len(grid)))
    # The smoke shard always exercises the full crash → restart →
    # reintegrate → crash-again lifecycle, whatever the sample drew.
    if not any(s.fault == "reintegrate-crash-again" for s in shard):
        shard.append(CellSpec(
            "midpoint", "reintegrate-crash-again",
            seed=seed, size=REINTEGRATE_SIZE,
        ))
    results = run_matrix(shard)
    _assert_all_ok(results)
    for result in results:
        if result.spec.fault in REINTEGRATE_FAULTS:
            # The flight recorder must have tiled a reintegration phase
            # (quiesce → install → rearm → merge) for the rejoin.
            assert result.reintegrations >= 1, result.describe()
            assert result.reintegration_phases, result.describe()
            assert set(result.reintegration_phases) == {
                "quiesce", "install", "rearm", "merge",
            }, result.describe()
