"""Import hygiene: ``unused-import``.

A name a ``src/`` module imports and never reads hides the module's real
dependencies.  Two uses that are not reads keep such a name: another
module of the run imports it from this one (``harness.chaos`` re-exports
``summarize`` that way), or ``__all__`` lists it.  ``__init__.py``
modules are exempt, since re-exporting is what they are for.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterator, List, Set, Tuple

from repro.analysis.engine import FileContext, Violation
from repro.analysis.rules.base import Rule, in_src

if TYPE_CHECKING:
    from repro.analysis.callgraph import ProjectIndex


def module_name(path: str) -> str:
    """``src/repro/tcp/buffers.py`` -> ``repro.tcp.buffers``."""
    return path[len("src/"):-len(".py")].replace("/", ".")


Scan = Tuple[Dict[str, ast.stmt], Set[str], Set[Tuple[str, str]]]


def scan(tree: ast.AST) -> Scan:
    """One walk of a module: the names its imports bind (with their
    statements), the names it reads (string annotations and ``__all__``
    included) and the ``(module, name)`` pairs it imports."""
    bound: Dict[str, ast.stmt] = {}
    read: Set[str] = set()
    imports: Set[Tuple[str, str]] = set()
    spelled: List[ast.expr] = []  # annotations and __all__: their strings name things
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if node.module:
                    imports.add((node.module, alias.name))
                if node.module != "__future__" and alias.name != "*":
                    bound[alias.asname or alias.name] = node
        elif isinstance(node, ast.arg) and node.annotation is not None:
            spelled.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            spelled.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            spelled.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            spelled.append(node.value)
    for root in spelled:
        for const in ast.walk(root):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                try:
                    parsed = ast.parse(const.value, mode="eval")
                except SyntaxError:
                    continue
                read.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return bound, read, imports


class UnusedImportRule(Rule):
    name = "unused-import"
    description = "a src/ module imports a name it never reads and no module imports from it"
    #: Needs every module of the run: a name another module imports from
    #: this one is a re-export, not dead.
    needs_project = True

    def __init__(self) -> None:
        self._imported_from: Set[Tuple[str, str]] = set()
        self._scans: Dict[str, Scan] = {}

    def applies_to(self, path: str) -> bool:
        return in_src(path) and not path.endswith("/__init__.py")

    def begin_project(self, project: "ProjectIndex") -> None:
        """Walk every module of the run once; :meth:`check` reuses the scan."""
        self._scans = {path: scan(m.tree) for path, m in project.modules.items()}
        self._imported_from = set().union(*(s[2] for s in self._scans.values()))

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        module = module_name(ctx.path)
        bound, read, _ = self._scans.get(ctx.path) or scan(ctx.tree)
        for name, node in bound.items():
            if name in read or (module, name) in self._imported_from:
                continue
            yield ctx.violation(
                node, self.name, f"`{name}` is imported but never read"
            )
