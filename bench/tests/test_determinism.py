"""Simulated results are a pure function of the seed; watching changes nothing."""

import pytest

from bench.runner import BenchError, aggregate
from bench.tests.conftest import SCALES
from bench.trial import run_trial

WORKLOADS = sorted(SCALES)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_verifies_its_output(workload, trial):
    result = trial(workload)
    assert result["failed"] == 0, result["problems"]
    assert result["attempted"] >= 1 and result["ops"] == result["attempted"]
    assert all(value > 0 for value in result["simulated"].values())


@pytest.mark.parametrize("workload", ["bulk_pull", "conn_churn", "failover_cycle"])
def test_same_seed_repeats_exactly(workload, trial):
    again = run_trial(workload, 1, scale=SCALES[workload])
    assert again["fingerprint"] == trial(workload)["fingerprint"]
    assert again["counts"] == trial(workload)["counts"]
    assert again["simulated"] == trial(workload)["simulated"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_another_seed_gives_another_run(workload, trial):
    assert trial(workload, seed=2)["fingerprint"] != trial(workload)["fingerprint"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_does_not_change_the_simulation(workload, trial):
    traced = trial(workload, traced=True)
    assert traced["failed"] == 0, traced["problems"]
    assert traced["fingerprint"] == trial(workload)["fingerprint"]


def test_disagreeing_trials_are_refused(trial):
    a, b = trial("bulk_pull"), trial("bulk_pull", seed=2)
    with pytest.raises(BenchError, match="differ between trials"):
        aggregate("bulk_pull", [a, dict(b, seed=1)])
