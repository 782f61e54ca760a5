"""Intraprocedural control-flow graphs over ``ast`` statements.

One :class:`CFG` per function: nodes are the function's statements plus
synthetic entry/exit nodes; edges carry the branch condition they encode
(``test`` + ``branch``) so a dataflow client can *refine* its facts on
conditional edges — the mechanism that turns ``if self.state ==
TcpState.CLOSED: ... raise`` guards into precise predecessor sets for
the protocol extractor, and ``if sealed: ...`` splits into per-path
checksum facts.

The graph is deliberately statement-granular (no basic blocks): the
analyses built on it (:mod:`repro.analysis.dataflow`) are run over
functions of a few hundred statements at most, where the simplicity of
one-fact-per-statement beats block compression.

Modelling choices, all conservative for may-analyses:

* loop bodies edge back to the loop head; ``for`` iteration edges are
  unlabelled (iteration count is unknowable statically);
* every statement inside a ``try`` body gains an exceptional edge to
  each handler head, so a handler joins facts from any point the body
  could have raised;
* ``return``/``raise`` edge to the exit node; ``assert`` continues on
  its True branch and exits on False (a failed assert leaves the
  function);
* nested function/class definitions are opaque single statements — they
  get their own CFG when the client asks for one.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: A dangling edge under construction: (source node, test, branch).
_Pending = Tuple[int, Optional[ast.expr], Optional[bool]]


@dataclass(frozen=True)
class Edge:
    """One control-flow edge; ``test``/``branch`` label conditionals."""

    src: int
    dst: int
    test: Optional[ast.expr] = None
    branch: Optional[bool] = None


class CFG:
    """Control-flow graph of one function definition."""

    def __init__(self, func: FuncDef):
        self.func = func
        #: node id -> statement (None for the synthetic entry/exit).
        self.stmts: List[Optional[ast.stmt]] = []
        self.succs: Dict[int, List[Edge]] = {}
        self.preds: Dict[int, List[Edge]] = {}
        self.entry = self._new_node(None)
        self.exit = self._new_node(None)
        _Builder(self).build()

    # -- construction ----------------------------------------------------

    def _new_node(self, stmt: Optional[ast.stmt]) -> int:
        node = len(self.stmts)
        self.stmts.append(stmt)
        self.succs[node] = []
        self.preds[node] = []
        return node

    def _add_edge(
        self,
        src: int,
        dst: int,
        test: Optional[ast.expr] = None,
        branch: Optional[bool] = None,
    ) -> None:
        edge = Edge(src, dst, test, branch)
        self.succs[src].append(edge)
        self.preds[dst].append(edge)

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.stmts)

    def statement_nodes(self) -> List[int]:
        """All non-synthetic node ids, in statement order."""
        return [i for i, s in enumerate(self.stmts) if s is not None]


class _Builder:
    """Recursive-descent CFG construction with pending-edge frontiers."""

    def __init__(self, cfg: CFG):
        self.cfg = cfg
        # Stack of (continue target, break pending) for enclosing loops.
        self._loops: List[Tuple[int, List[_Pending]]] = []

    def build(self) -> None:
        pending: List[_Pending] = [(self.cfg.entry, None, None)]
        pending = self._stmts(self.cfg.func.body, pending)
        self._connect(pending, self.cfg.exit)

    def _connect(self, pending: Sequence[_Pending], node: int) -> None:
        for src, test, branch in pending:
            self.cfg._add_edge(src, node, test, branch)

    def _stmts(
        self, body: Sequence[ast.stmt], pending: List[_Pending]
    ) -> List[_Pending]:
        for stmt in body:
            pending = self._stmt(stmt, pending)
        return pending

    def _stmt(self, stmt: ast.stmt, pending: List[_Pending]) -> List[_Pending]:
        node = self.cfg._new_node(stmt)
        self._connect(pending, node)
        if isinstance(stmt, ast.If):
            out = self._stmts(stmt.body, [(node, stmt.test, True)])
            false_pending: List[_Pending] = [(node, stmt.test, False)]
            if stmt.orelse:
                out = out + self._stmts(stmt.orelse, false_pending)
            else:
                out = out + false_pending
            return out
        if isinstance(stmt, ast.While):
            self._loops.append((node, []))
            body_out = self._stmts(stmt.body, [(node, stmt.test, True)])
            self._connect(body_out, node)  # loop back to the test
            _, breaks = self._loops.pop()
            out = [(node, stmt.test, False)]
            if stmt.orelse:
                out = self._stmts(stmt.orelse, out)
            return out + breaks
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._loops.append((node, []))
            body_out = self._stmts(stmt.body, [(node, None, None)])
            self._connect(body_out, node)
            _, breaks = self._loops.pop()
            out: List[_Pending] = [(node, None, None)]
            if stmt.orelse:
                out = self._stmts(stmt.orelse, out)
            return out + breaks
        if isinstance(stmt, (ast.Return, ast.Raise)):
            self.cfg._add_edge(node, self.cfg.exit)
            return []
        if isinstance(stmt, ast.Break):
            if self._loops:
                self._loops[-1][1].append((node, None, None))
            return []
        if isinstance(stmt, ast.Continue):
            if self._loops:
                self.cfg._add_edge(node, self._loops[-1][0])
            return []
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._stmts(stmt.body, [(node, None, None)])
        if isinstance(stmt, ast.Try):
            first_body_node = len(self.cfg.stmts)
            out = self._stmts(stmt.body, [(node, None, None)])
            body_nodes = list(range(first_body_node, len(self.cfg.stmts)))
            if stmt.orelse:
                out = self._stmts(stmt.orelse, out)
            for handler in stmt.handlers:
                # Any statement of the body may raise into the handler;
                # so may the Try entry itself (an empty body is illegal,
                # but a raise in the first statement must reach it too).
                raisers: List[_Pending] = [(node, None, None)]
                raisers += [(n, None, None) for n in body_nodes]
                out = out + self._stmts(handler.body, raisers)
            if stmt.finalbody:
                out = self._stmts(stmt.finalbody, out)
            return out
        if isinstance(stmt, ast.Assert):
            # Failure raises out of the function; success refines True.
            self.cfg._add_edge(node, self.cfg.exit, stmt.test, False)
            return [(node, stmt.test, True)]
        # Simple statements and opaque compounds (nested defs, classes).
        return [(node, None, None)]


def statement_exprs(stmt: ast.stmt) -> List[ast.expr]:
    """The expressions evaluated *by this statement itself*.

    Child statements are separate CFG nodes with their own (possibly
    refined) facts, and nested ``def`` bodies are separate functions —
    walking the raw statement would visit both under the wrong fact.
    Clients that scan a statement for calls/uses must walk these roots
    instead of ``ast.walk(stmt)``.
    """
    roots: List[ast.expr] = []
    for _, value in ast.iter_fields(stmt):
        if isinstance(value, ast.expr):
            roots.append(value)
        elif isinstance(value, ast.withitem):
            roots.extend(_withitem_exprs(value))
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, ast.expr):
                    roots.append(item)
                elif isinstance(item, ast.withitem):
                    roots.extend(_withitem_exprs(item))
                elif isinstance(item, (ast.stmt, ast.excepthandler)):
                    break  # a body: its statements are their own nodes
    return roots


def _withitem_exprs(item: ast.withitem) -> List[ast.expr]:
    exprs = [item.context_expr]
    if item.optional_vars is not None:
        exprs.append(item.optional_vars)
    return exprs
