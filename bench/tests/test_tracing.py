"""The span wrappers: installed by name, tolerant, removed afterwards."""

import importlib

import pytest

from bench.tests.conftest import SCALES
from bench.tracing import BOUNDARIES, LAYERS, Recorder, layer_of_module
from bench.trial import run_trial


def resolve(path):
    module_name, _, qualname = path.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = qualname.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return vars(owner)[attr]


def is_wrapped(raw):
    return getattr(getattr(raw, "__func__", raw), "__bench_wrapped__", False)


def test_every_boundary_name_exists_today():
    recorder = Recorder().install()
    try:
        assert recorder.missing == []
        assert all(is_wrapped(resolve(path)) for path, _probe in BOUNDARIES)
    finally:
        recorder.uninstall()


def test_wrappers_are_removed_after_the_traced_run(trial):
    trial("bulk_pull", traced=True)
    assert not any(is_wrapped(resolve(path)) for path, _probe in BOUNDARIES)
    from repro.apps import bulk, request_reply

    assert request_reply.pattern_bytes is bulk.pattern_bytes


def test_a_missing_boundary_is_tolerated_and_counted():
    gone = (
        ("repro.sim.engine:Simulator.no_such_method", None),
        ("repro.no_such_module:function", None),
        ("repro.tcp.layer:NoSuchClass.method", None),
    )
    with Recorder(boundaries=BOUNDARIES + gone) as recorder:
        assert recorder.missing == [path for path, _probe in gone]
    result = run_trial("conn_churn", 1, scale=SCALES["conn_churn"], traced=True,
                       boundaries=BOUNDARIES + gone)
    assert result["failed"] == 0
    assert result["layers"]["trace.boundaries_missing"] == len(gone)


def test_double_install_is_refused():
    with Recorder():
        with pytest.raises(RuntimeError, match="already wrapped"):
            Recorder().install()


@pytest.mark.parametrize("workload", sorted(SCALES))
def test_layer_shares_tile_the_run(workload, trial):
    layers = trial(workload, traced=True)["layers"]
    shares = sum(layers[f"{layer}.self_share"] for layer in LAYERS)
    assert shares + layers["trace.unattributed_share"] == pytest.approx(1.0, abs=0.02)
    assert layers["trace.unattributed_share"] <= 0.05
    assert layers["trace.spans"] > 0 and layers["sim.events"] > 0


def test_a_checker_only_the_traced_run_attaches_stays_out_of_the_ledger(trial):
    result = trial("bulk_pull", traced=True)
    layers, table = result["layers"], result["boundaries"]
    checker = sum(row["corrected_self_s"] for name, row in table.items()
                  if name.startswith("InvariantChecker."))
    assert layers["obs.invariant_checks"] > 0 and checker > 0
    everything = sum(row["corrected_self_s"] for row in table.values())
    ledger = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
    assert ledger / (1 - layers["trace.unattributed_share"]) == pytest.approx(
        everything - checker)


def test_the_unreplicated_cell_never_touches_failover_or_cluster(trial):
    layers = trial("bulk_plain", traced=True)["layers"]
    counts = [name for name in layers
              if name.startswith(("failover.", "cluster."))
              and not name.endswith((".self_s", ".self_share"))]
    assert counts and all(layers[name] == 0 for name in counts)
    assert layers["failover.self_s"] == 0 and layers["cluster.self_s"] == 0


def test_workloads_separate_the_layers(trial):
    churn = trial("conn_churn", traced=True)["layers"]
    push = trial("bulk_push", traced=True)["layers"]
    wan = trial("wan_ftp", traced=True)["layers"]
    assert churn["apps.pattern_calls"] > 0 and push["apps.pattern_calls"] == 0
    assert push["tcp.retransmit_share"] == 0
    assert wan["net.wan_drops"] > 0 and wan["tcp.retransmits"] > 0
    storm = trial("fleet_storm", traced=True)["layers"]
    assert storm["cluster.steered"] > 0 and storm["failover.takeovers"] == 2
    cycle = trial("failover_cycle", traced=True)["layers"]
    assert cycle["failover.reintegrations"] * 8 == cycle["apps.ops"]  # 8 reads per pull
    assert cycle["failover.detect_ms_p50"] > 0 and cycle["failover.stall_ms_max"] > 0


def test_modules_map_to_layers():
    assert LAYERS[layer_of_module("repro.sim.trace")] == "obs"
    assert LAYERS[layer_of_module("repro.sim.engine")] == "sim"
    assert LAYERS[layer_of_module("repro.workload.generator")] == "apps"
    assert LAYERS[layer_of_module("bench.workloads")] == "apps"
    assert layer_of_module("repro.harness.topology") == len(LAYERS)


def test_generator_proxy_keeps_generator_semantics():
    recorder = Recorder()
    seen = []

    def body():
        try:
            got = yield 1
            seen.append(got)
            yield 2
        except KeyError as exc:
            seen.append(type(exc))
            got = yield 3
        return got

    proxy = recorder._drive(body(), recorder._boundary("body", 0), 0)
    assert next(proxy) == 1
    assert proxy.send("a") == 2
    assert proxy.throw(KeyError("k")) == 3
    with pytest.raises(StopIteration) as stop:
        proxy.send("done")
    assert stop.value.value == "done" and seen == ["a", KeyError]
    assert recorder.count[recorder.names.index("body")] == 4
    assert len(recorder.stack) == 1
