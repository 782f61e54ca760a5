"""The attack matrix: strategy × attacker position × lifetime fraction.

The full sweep is marked ``chaos`` and excluded from the default run
(see ``pyproject.toml``); run it with::

    PYTHONPATH=src python -m pytest tests/adversary/test_attack_matrix.py -m chaos

Tier-1 keeps a representative cell per strategy plus targeted
assertions on the defenses themselves (rate-limited challenge ACKs,
coarse sequence estimates, ignored ARP forgeries, refused flow
re-steers) and a bit-for-bit replay check.  The seeded smoke shard
(``-m chaos -k smoke``) is what CI runs twice and ``cmp``'s.
"""

import os
import random

import pytest

from repro.adversary import (
    ATTACK_FRACTIONS,
    STRATEGIES,
    AttackSpec,
    attack_matrix,
    run_attack_cell,
    run_attack_matrix,
    summarize,
)
from repro.adversary.matrix import POSITIONS
from repro.adversary.strategies import INFER_BUDGET, INFER_MIN_ERROR
from repro.harness.cells import clean_duration


def _assert_all_ok(results):
    assert all(r.ok for r in results), summarize(results)


def test_matrix_axes_meet_the_floor():
    """The grid the isolation claim is swept over: ≥40 cells, ≥4 ways in."""
    assert len(STRATEGIES) >= 4
    assert len(POSITIONS) >= 2
    assert len(ATTACK_FRACTIONS) >= 3
    assert len(attack_matrix()) >= 40


# ----------------------------------------------------------------------
# tier-1: one representative cell per strategy
# ----------------------------------------------------------------------

REPRESENTATIVE = [
    AttackSpec("syn-sweep", "service", "early"),
    AttackSpec("fin-ack-sweep", "client", "late"),
    AttackSpec("pmtud-probe", "service", "midpoint"),
    AttackSpec("arp-race", "service", "early"),
    AttackSpec("flow-poison", "service", "late"),
]


@pytest.mark.parametrize("spec", REPRESENTATIVE, ids=str)
def test_representative_cell(spec):
    result = run_attack_cell(spec)
    assert result.ok, result.describe()
    assert result.injections > 0
    assert result.finished


def test_rst_sweep_is_rate_limited_and_harmless():
    """A 64-probe blind RST sweep draws at most CHALLENGE_LIMIT challenge
    ACKs (RFC 5961 §10) and the transfer still completes over failover."""
    result = run_attack_cell(AttackSpec("rst-sweep", "client", "midpoint"))
    assert result.ok, result.describe()
    assert result.injections_by_kind.get("rst") == 64
    challenges = result.counters["challenge_acks.client"]
    assert 1 <= challenges <= 3, result.describe()
    assert result.failed_over and result.finished


def test_seq_inference_stays_coarse_within_budget():
    """The challenge-ACK side channel must starve before the binary search
    converges: the estimate stays ≥ INFER_MIN_ERROR off the true value."""
    result = run_attack_cell(AttackSpec("seq-infer", "client", "late"))
    assert result.ok, result.describe()
    assert result.results["seq_probes"] <= INFER_BUDGET
    assert result.results["seq_error"] >= INFER_MIN_ERROR, result.describe()


def test_reactive_arp_race_is_ignored_during_takeover():
    """Forged VIP claims fired microseconds after the takeover announce
    land inside the ARP guard window and are ignored, not honoured."""
    result = run_attack_cell(AttackSpec("arp-race", "client", "midpoint"))
    assert result.ok, result.describe()
    assert result.failed_over
    ignored = sum(
        count for name, count in result.counters.items()
        if name.startswith("arp_ignored.")
    )
    assert ignored > 0, result.describe()


def test_flow_poison_spoofed_syns_are_refused():
    """Spoofed initial SYNs bearing live victims' 4-tuples never re-steer
    the pins; every workload session still completes."""
    result = run_attack_cell(AttackSpec("flow-poison", "client", "midpoint"))
    assert result.ok, result.describe()
    assert result.counters["dispatcher.syn_reassigns_refused"] > 0
    assert result.counters["workload.sessions_failed"] == 0


# ----------------------------------------------------------------------
# tier-1: bit-for-bit replay
# ----------------------------------------------------------------------


def _fingerprint_fresh(spec):
    clean_duration.cache_clear()
    return run_attack_cell(spec).fingerprint()


@pytest.mark.parametrize("spec", [
    AttackSpec("rst-sweep", "client", "early"),
    AttackSpec("flow-poison", "service", "early"),
], ids=str)
def test_cell_replay_is_byte_identical(spec):
    """Same spec, fresh simulator (and fresh timing anchor) → identical
    canonical fingerprint, including every counter and injection."""
    first = _fingerprint_fresh(spec)
    second = _fingerprint_fresh(spec)
    assert first == second


# ----------------------------------------------------------------------
# full sweep and CI smoke shard (chaos-marked)
# ----------------------------------------------------------------------


@pytest.mark.chaos
def test_full_attack_matrix():
    results = run_attack_matrix(attack_matrix())
    _assert_all_ok(results)
    # Every cell actually attacked, and every bridge cell failed over.
    assert all(r.injections > 0 for r in results), summarize(results)


@pytest.mark.chaos
def test_adversary_smoke_shard():
    """A seeded random slice of the grid, run twice: every cell must pass
    its invariants and replay to a byte-identical fingerprint (CI also
    cross-checks the written artifacts with ``cmp``)."""
    seed = int(os.environ.get("ADVERSARY_SMOKE_SEED", "1"))
    count = int(os.environ.get("ADVERSARY_SMOKE_CELLS", "8"))
    grid = attack_matrix(seeds=(seed,))
    shard = random.Random(seed).sample(grid, k=min(count, len(grid)))
    # Whatever the sample drew, always cover the adaptive strategy.
    if not any(s.strategy == "seq-infer" for s in shard):
        shard.append(AttackSpec("seq-infer", "client", "late", seed=seed))
    clean_duration.cache_clear()
    first = run_attack_matrix(shard)
    _assert_all_ok(first)
    clean_duration.cache_clear()
    second = run_attack_matrix(shard)
    for a, b in zip(first, second):
        assert a.fingerprint() == b.fingerprint(), str(a.spec)
