"""``/BENCHMARK.json`` against the code and against the driver's contract."""

from bench.spec import (
    HOST_METRICS,
    NAME_GRAMMAR,
    SIMULATED_METRICS,
    SPEC_PATH,
    UNIT_GRAMMAR,
    is_host_time_layer_metric,
    load_spec,
    tail_kind,
)
from bench.workloads import WORKLOADS


def test_file_shape_and_limits():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC_PATH.stat().st_size <= 64 * 1024
    assert spec["paths"] == ["bench"] and spec["command"][:1] == ["python3"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    # 4 + 22 runs per workload, each run_seconds plus set-up, inside 3420 s.
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 6) < 3420


def test_names_units_and_bounds_follow_the_grammar():
    spec = load_spec()
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME_GRAMMAR.match(name) for name in names)
    for entry in spec["workloads"]:
        assert set(entry) == {"name", "why"}
        assert "\n" not in entry["why"] and len(entry["why"]) <= 200
    for entry in spec["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in spec["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT_GRAMMAR.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    setup = {e["name"]: e for e in spec["end_to_end"]}["setup_s"]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in spec["end_to_end"])


def test_workloads_and_metrics_match_the_code(trial):
    spec = load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(HOST_METRICS + SIMULATED_METRICS)
    result = trial("bulk_pull", traced=True)
    assert set(result["host"]) == set(HOST_METRICS)
    assert set(result["simulated"]) == set(SIMULATED_METRICS)
    computed = set(result["layers"]) | {"trace.overhead_ratio", "sim.slowdown"}
    assert {m["name"] for m in spec["per_layer"]} == computed


def test_host_time_and_exact_metrics_are_told_apart():
    assert is_host_time_layer_metric("tcp.self_s")
    assert is_host_time_layer_metric("net.us_per_frame")
    assert is_host_time_layer_metric("apps.self_share")
    assert not is_host_time_layer_metric("tcp.retransmit_share")
    assert not is_host_time_layer_metric("failover.stall_ms_max")
    assert not is_host_time_layer_metric("sim.events_per_op")


def test_tail_follows_the_sample_count():
    assert [tail_kind(n) for n in (9, 99, 100, 999, 1000)] == [
        "max", "max", "p90", "p90", "p99"]
