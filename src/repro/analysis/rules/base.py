"""Rule base class and shared AST helpers."""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Optional, Tuple

from repro.analysis.engine import FileContext, Violation

if TYPE_CHECKING:
    from repro.analysis.callgraph import ProjectIndex

#: The deterministic-simulation layers (sim-safety scope).
SIM_LAYERS: Tuple[str, ...] = (
    "src/repro/sim/",
    "src/repro/tcp/",
    "src/repro/failover/",
    "src/repro/net/",
    "src/repro/clients/",
)


class Rule:
    """One analysis pass.  Subclasses set ``name`` and implement ``check``.

    Rules that need the whole run (the interprocedural ones, and
    ``unused-import``) additionally set ``needs_project`` and receive a
    :class:`~repro.analysis.callgraph.ProjectIndex` over every file of
    the run via :meth:`begin_project` before any ``check`` call.
    """

    name: str = ""
    description: str = ""
    #: True for rules that need cross-function summaries (a ProjectIndex).
    needs_project: bool = False

    def applies_to(self, path: str) -> bool:
        return True

    def begin_project(self, project: "ProjectIndex") -> None:
        """Install the project index; called once per lint run."""

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        raise NotImplementedError


def call_name(node: ast.Call) -> str:
    """Trailing identifier of the called expression (`a.b.c()` -> `c`)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def dotted_name(node: ast.AST) -> str:
    """Reconstruct `a.b.c` for Name/Attribute chains ('' if not one)."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def in_src(path: str) -> bool:
    return path.startswith("src/repro/")


def in_sim_layers(path: str) -> bool:
    return any(path.startswith(layer) for layer in SIM_LAYERS)


def int_const(node: ast.AST) -> Optional[int]:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    return None
