"""Workload generators: distributions, determinism, end-to-end drivers."""

import pytest

from repro.cluster import ShardedFleet
from repro.sim.rng import RngRegistry
from repro.workload import BoundedPareto, ClosedLoopWorkload, Exponential, Fixed

PORT = 8000


# ----------------------------------------------------------------------
# distributions
# ----------------------------------------------------------------------


def test_fixed_distribution():
    d = Fixed(7.0)
    rng = RngRegistry(0).stream("t")
    assert d.sample(rng) == 7.0
    assert d.mean() == 7.0


def test_exponential_sample_mean_approaches_analytic():
    d = Exponential(0.25)
    rng = RngRegistry(3).stream("t")
    samples = [d.sample(rng) for _ in range(20_000)]
    assert all(s >= 0 for s in samples)
    assert d.mean() == pytest.approx(0.25)
    assert sum(samples) / len(samples) == pytest.approx(0.25, rel=0.05)


def test_bounded_pareto_support_and_mean():
    d = BoundedPareto(alpha=1.2, minimum=64, maximum=500_000)
    rng = RngRegistry(5).stream("t")
    samples = [d.sample(rng) for _ in range(50_000)]
    assert min(samples) >= 64
    assert max(samples) <= 500_000
    # Heavy-tailed: the empirical mean converges slowly; 25% is enough to
    # catch an inverse-CDF transcription error (off by orders of magnitude).
    assert sum(samples) / len(samples) == pytest.approx(d.mean(), rel=0.25)


def test_bounded_pareto_alpha_one_mean_is_finite():
    d = BoundedPareto(alpha=1.0, minimum=10, maximum=1000)
    assert 10 < d.mean() < 1000


def test_distribution_validation():
    with pytest.raises(ValueError):
        Exponential(0)
    with pytest.raises(ValueError):
        BoundedPareto(alpha=0, minimum=1, maximum=2)
    with pytest.raises(ValueError):
        BoundedPareto(alpha=1, minimum=5, maximum=5)
    with pytest.raises(ValueError):
        Fixed(-1)


def test_same_seed_same_draws():
    for _ in range(2):
        draws = []
        for seed in (11, 11):
            rng = RngRegistry(seed).stream("w")
            d = BoundedPareto(alpha=1.5, minimum=100, maximum=10_000)
            draws.append([d.sample(rng) for _ in range(64)])
        assert draws[0] == draws[1]


# ----------------------------------------------------------------------
# drivers (against a small real fleet)
# ----------------------------------------------------------------------


def _fleet(shards=2, clients=2, seed=0):
    fleet = ShardedFleet(shards=shards, clients=clients, seed=seed,
                         service_port=PORT)
    fleet.run_reply_service()
    return fleet


def test_closed_loop_completes_and_records():
    fleet = _fleet()
    wl = ClosedLoopWorkload(
        fleet.clients, fleet.virtual_ip, PORT, fleet.rng,
        sessions=6, reply_sizes=Fixed(256), think_times=Exponential(0.01),
        ramp=0.05, hold_for=0.2,
    )
    wl.start()
    assert fleet.sim.run_until(lambda: wl.complete, timeout=10.0)
    stats = wl.stats
    assert stats.sessions_completed == 6
    assert stats.sessions_failed == 0
    assert stats.corrupt_replies == 0
    assert stats.requests_completed == len(stats.latencies)
    assert stats.requests_completed >= 6
    assert stats.peak_open == 6  # ramp << hold: all sessions overlap
    assert stats.open_now == 0
    assert set(stats.session_flows) == set(range(6))
    # Every latency sample lands inside the run.
    assert all(0 < t <= fleet.sim.now for t, _lat, _sid in stats.latencies)


def test_closed_loop_latency_window_slicing():
    fleet = _fleet(seed=2)
    wl = ClosedLoopWorkload(
        fleet.clients, fleet.virtual_ip, PORT, fleet.rng,
        sessions=4, reply_sizes=Fixed(128), think_times=Fixed(0.02),
        ramp=0.02, hold_for=0.3,
    )
    wl.start()
    assert fleet.sim.run_until(lambda: wl.complete, timeout=10.0)
    stats = wl.stats
    mid = fleet.sim.now / 2
    first = stats.latencies_between(0.0, mid)
    second = stats.latencies_between(mid, fleet.sim.now + 1.0)
    assert len(first) + len(second) == len(stats.latencies)
    assert first and second


def test_workload_start_is_single_shot():
    fleet = _fleet(seed=5)
    wl = ClosedLoopWorkload(
        fleet.clients, fleet.virtual_ip, PORT, fleet.rng, sessions=2,
        ramp=0.01, hold_for=0.05,
    )
    wl.start()
    with pytest.raises(RuntimeError):
        wl.start()


def test_workload_validation():
    fleet = _fleet(seed=6)
    with pytest.raises(ValueError):
        ClosedLoopWorkload([], fleet.virtual_ip, PORT, fleet.rng)
    with pytest.raises(ValueError):
        ClosedLoopWorkload(fleet.clients, fleet.virtual_ip, PORT, fleet.rng,
                           sessions=0)
