"""TCP's event table is the inventory: DESIGN.md Appendix A and every emit
site in ``tcp/`` are held to it, as the bridges' are to theirs."""

import ast
from pathlib import Path

from repro.tcp import connection, core, layer
from repro.tcp.layer import TcpLayer
from tests.util import documented

EVENTS = TcpLayer.EVENTS
TRACES = {spec.trace[0] for spec in EVENTS.values() if spec.trace}
METRICS = {metric[0] for spec in EVENTS.values() for metric in spec.counters}


def test_appendix_a_lists_exactly_the_table():
    assert documented("### A.1 Trace categories", "### A.2", "tcp.") == {"tcp.layer": TRACES}
    assert documented("### A.2 Metric names", "### A.3", "tcp.") == {"tcp.layer": METRICS}
    assert len(TRACES) == sum(1 for spec in EVENTS.values() if spec.trace)  # each once


def emit_sites():
    """Every ``_event("name", ...)`` call under ``tcp/``: the core's take
    keywords only, the layer's may name a flow first."""
    for module in (core, connection, layer):
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "_event" and node.args
                    and isinstance(node.args[0], ast.Constant)):
                yield module, node.args[0].value, node


def test_every_emit_site_names_a_row_and_passes_fields_it_reads():
    used = set()
    for module, name, call in emit_sites():
        if name in ("readable", "writable"):
            continue  # the core's edges; the shell re-raises both when a TCB dies
        if name in connection._LIFECYCLE:
            assert module is core, "lifecycle edges are the core's to raise"
            continue
        spec = EVENTS[name]
        used.add(name)
        passed = tuple(keyword.arg for keyword in call.keywords)
        if name == "bad_checksum" and module is layer:
            assert passed == ("seg",)  # a SYN for a listener: no TCB to name
        else:
            assert passed == spec.fields(), (module.__name__, name)
        assert (len(call.args) > 1) == bool(spec.span), name
    assert used == set(EVENTS)


def test_tcp_names_live_in_the_table_only():
    """No category, metric or span name is spelled at a site, and nothing
    but ``_event`` reaches an observer."""
    names = TRACES | METRICS | {spec.span[0] for spec in EVENTS.values() if spec.span}
    for path in sorted(Path(layer.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        table = {
            id(constant)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "EVENTS"
            for constant in ast.walk(node.value)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and id(node) not in table:
                assert node.value not in names, (path.name, node.lineno)
            if isinstance(node, ast.Attribute):
                assert not node.attr.startswith("_m_"), (path.name, node.lineno)
                if node.attr in ("emit", "flow_event", "counter", "histogram"):
                    assert False, f"{path.name}:{node.lineno} bypasses _event"
