"""The bridges' event tables are the inventory: the documentation and every
emit site are held to them, so neither can drift."""

import ast
from pathlib import Path

import pytest

from repro.failover import core, primary, secondary
from repro.failover.primary import PrimaryBridge
from repro.failover.secondary import SecondaryBridge
from tests.util import ROOT, documented
LAYERS = {"failover.primary": PrimaryBridge, "failover.secondary": SecondaryBridge}


def test_appendix_a1_lists_exactly_the_trace_categories_in_the_tables():
    expected = {
        layer: {spec.trace[0] for spec in bridge.EVENTS.values() if spec.trace}
        for layer, bridge in LAYERS.items()
    }
    assert documented("### A.1 Trace categories", "### A.2", "bridge.") == expected


def test_appendix_a2_lists_exactly_the_metrics_in_the_tables():
    expected = {
        layer: {metric[0] for spec in bridge.EVENTS.values()
                for metric in spec.counters + spec.histograms}
        for layer, bridge in LAYERS.items()
    }
    assert documented("### A.2 Metric names", "### A.3", "bridge.") == expected
    histograms = {metric[0] for spec in PrimaryBridge.EVENTS.values()
                  for metric in spec.histograms}
    table = (ROOT / "DESIGN.md").read_text().split("### A.2 Metric names")[1]
    for name in histograms:
        (row,) = [line for line in table.splitlines() if f"`{name}`" in line]
        assert "histogram" in row, row


def emit_sites():
    """Every ``_event("name", ...)`` call in the bridge modules."""
    for module, table in ((core, PrimaryBridge.EVENTS), (primary, PrimaryBridge.EVENTS),
                          (secondary, SecondaryBridge.EVENTS)):
        tree = ast.parse(Path(module.__file__).read_text())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "_event" and node.args):
                yield module.__name__, node, table


def test_every_emit_site_names_a_row_and_passes_the_fields_it_reads():
    used = set()
    for module, call, table in emit_sites():
        name = call.args[0]
        if not isinstance(name, ast.Constant):
            # The §8 no-state ACK picks one of two rows by argument.
            assert module == primary.__name__ and ast.unparse(name) == "event"
            continue
        spec = table[name.value]
        used.add((id(table), name.value))
        # _event relies on it: exactly the fields the row reads, the
        # trace's first and in the table's order.
        passed = tuple(keyword.arg for keyword in call.keywords)
        assert passed == spec.fields(), (module, name.value)
        if spec.span or spec.hook:
            assert len(call.args) > 1, f"{name.value} needs its connection"
    used |= {(id(PrimaryBridge.EVENTS), name)
             for name in ("late_ack_to_s", "late_ack_to_peer")}
    declared = {(id(table), name) for table in (PrimaryBridge.EVENTS, SecondaryBridge.EVENTS)
                for name in table}
    assert used == declared


@pytest.mark.parametrize("bridge", LAYERS.values(), ids=lambda b: b.__name__)
def test_each_trace_category_is_declared_once(bridge):
    categories = [spec.trace[0] for spec in bridge.EVENTS.values() if spec.trace]
    assert len(categories) == len(set(categories))
