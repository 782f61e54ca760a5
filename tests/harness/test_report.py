"""harness.report.Report: the one renderer and the one artifact writer."""

import pytest

from repro.harness.report import Report, Table
from repro.obs.bench import load_bench_artifact


def test_render_is_tables_then_notes_with_columns_padded_to_the_widest_cell():
    report = Report(
        tables=[Table("T", ["k", "value"], [("alpha", 1), ("b", 22)])],
        notes=["", "done"],
    )
    assert report.render().split("\n") == [
        "",
        "== T ==",
        "k     | value",
        "------+------",
        "alpha | 1    ",
        "b     | 22   ",
        "",
        "done",
    ]


def test_a_table_without_rows_still_renders_its_header():
    assert Table("empty", ["a", "bb"], []).lines() == ["== empty ==", "a | bb", "--+---"]


def test_write_files_a_valid_artifact_where_it_is_told(tmp_path):
    report = Report(
        "demo", {"trials": 2}, [{"label": "x", "metrics": {"v": 1.5}}],
        stats={"x": {"median": 1.5}}, phases={"detection": 0.05},
    )
    path = report.write(tmp_path / "made" / "on" / "demand")
    assert path == str(tmp_path / "made" / "on" / "demand" / "BENCH_demo.json")
    doc = load_bench_artifact(path)
    assert (doc["name"], doc["params"], doc["phases"]) == (
        "demo", {"trials": 2}, {"detection": 0.05})


def test_a_view_has_nothing_to_file(tmp_path):
    with pytest.raises(ValueError, match="name"):
        Report(notes=["only text"]).write(tmp_path)
