"""Run with ``python -m pytest bench/tests`` from the repo root (these are
outside tier-1 ``testpaths``).  Workloads are shrunk with ``scale``."""

import pytest

from bench.trial import run_trial, use_checkout_sources

use_checkout_sources()

#: Small enough that the whole suite takes well under a minute.
SCALES = {
    "bulk_push": 0.05,
    "bulk_pull": 0.1,
    "bulk_plain": 0.05,
    "conn_churn": 0.025,
    "fleet_storm": 0.12,
    "failover_cycle": 0.1,
    "wan_ftp": 0.25,
}


@pytest.fixture(scope="session")
def trial():
    """Memoised ``run_trial`` so tests share the runs they need."""
    cache = {}

    def run(workload, seed=1, traced=False):
        key = (workload, seed, traced)
        if key not in cache:
            cache[key] = run_trial(workload, seed, scale=SCALES[workload], traced=traced)
        return cache[key]

    return run
