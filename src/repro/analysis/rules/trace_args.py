"""Rule ``eager-trace-arg``: do not format for an observer who may be absent.

``Tracer.emit`` counts every occurrence but builds a record only when a
recorder or subscriber exists; the per-segment sites run tens of
thousands of times per benchmark trial with neither.  An argument such as
``seg=repr(sealed)`` or ``to=f"{ip}:{port}"`` is evaluated *before* the
call, so its cost is paid whether or not anyone reads it — that was the
top entry of the PR 11 ledger on the standard-TCP cell.  The contract
(DESIGN.md Appendix A.1) is to pass a renderer — ``sealed.__repr__``,
``ip.__str__``, ``lambda: f"{ip}:{port}"`` — which ``emit`` calls at emit
time iff the record will be seen.

Flagged inside :data:`~repro.analysis.rules.base.SIM_LAYERS`:

* ``repr(...)``, ``str(...)``, ``<x>.format(...)`` and f-strings anywhere
  in an argument of ``<obj>.emit(...)`` / ``<obj>._event(...)`` (the
  bridges' one emission point, whose fields reach ``emit``), except inside
  a ``lambda`` (that *is* the deferred form);
* the same as the ``name`` of an ``Event(...)``: events are created per
  blocking call, their names are only read by error messages, and a
  constant says as much.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.analysis.engine import FileContext, Violation
from repro.analysis.rules.base import Rule, call_name, in_sim_layers

_EMITTERS = frozenset({"emit", "_event"})


def _eager_form(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.JoinedStr):
        return "an f-string"
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("repr", "str"):
            return f"{node.func.id}(...)"
        if isinstance(node.func, ast.Attribute) and node.func.attr == "format":
            return ".format(...)"
    return None


def _eager_nodes(root: ast.AST) -> Iterator[Tuple[ast.AST, str]]:
    """Eagerly formatted sub-expressions of ``root`` with their form,
    lambdas left alone."""
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Lambda):
            continue
        form = _eager_form(node)
        if form is not None:
            yield node, form
            continue  # one finding per formatted expression, not per nesting
        stack.extend(ast.iter_child_nodes(node))


def _event_name_args(call: ast.Call) -> List[ast.AST]:
    named = [kw.value for kw in call.keywords if kw.arg == "name"]
    return named or call.args[1:2]  # Event(sim, name)


class EagerTraceArgRule(Rule):
    name = "eager-trace-arg"
    description = (
        "repr()/str()/.format()/f-string evaluated as an argument of"
        " *.emit()/*._event() or as Event(name=...) in the sim layers"
    )

    def applies_to(self, path: str) -> bool:
        return in_sim_layers(path)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name in _EMITTERS and isinstance(node.func, ast.Attribute):
                args = list(node.args) + [kw.value for kw in node.keywords]
                for arg in args:
                    for eager, form in _eager_nodes(arg):
                        yield ctx.violation(
                            eager, self.name,
                            f"{form} is evaluated before"
                            f" {name}() can tell whether anyone observes;"
                            " pass a renderer (`x.__repr__`, `x.__str__`,"
                            " `lambda: ...`) that Tracer.emit calls only"
                            " when the record is seen",
                        )
            elif name == "Event":
                for arg in _event_name_args(node):
                    for eager, form in _eager_nodes(arg):
                        yield ctx.violation(
                            eager, self.name,
                            f"{form} formats an Event name on"
                            " every blocking call though only error"
                            " messages read it; use a constant name",
                        )
