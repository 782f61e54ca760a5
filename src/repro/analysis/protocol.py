"""Protocol state-machine extraction and model checking.

The paper's correctness argument (§2 invariants, §5/§6 takeover and
merge procedures) is a state-machine argument: every protocol object in
this codebase — the TCP TCB, the reintegration run, the takeover
procedure — owns one enum-valued attribute whose assignments *are* the
protocol.  This module recovers those transition graphs statically and
checks them against declared specs, so a refactor that adds an
undeclared edge (or orphans a state) fails the lint run with the
offending line, instead of surfacing as a wedged connection three layers
up.

Extraction is a flow-sensitive abstract interpretation over the
:mod:`repro.analysis.cfg` graphs: the abstract fact is *the set of
states the machine may currently be in*.  Three things refine it:

* guards — ``if self.state == TcpState.CLOSED`` (also ``is``, ``in
  SEND_STATES``, negations, ``and``/``or`` via De Morgan) narrow the
  fact along their branch edges;
* assignments — ``self.state = TcpState.SYN_SENT`` records a transition
  from every state in the current fact and collapses the fact to the
  target;
* call propagation — the fact at a same-module call site seeds the
  callee's entry fact (a summary pass iterated to fixpoint), so private
  helpers like ``_enter_time_wait`` inherit exactly the states their
  guarded callers allow.  The table-dispatch idiom
  ``{TcpState.X: self._handler, ...}.get(self.state, fallback)`` is
  recognised and seeds each handler with its key (the fallback with the
  complement).

Functions that are public (no leading underscore) or whose reference
escapes as a value (scheduled callbacks, hook assignments) start from
the full state set; their internal guards restore precision.

Specs (:class:`ProtocolSpec`) declare the states, initial/terminal sets,
the transition relation, ``from_any`` targets (abort-style states
enterable from anywhere) and ``dynamic`` assignments (functions that
install a computed state, with the set it may take).  The checker
reports, line-accurately where possible:

* extracted transitions absent from the spec (undeclared transition);
* declared transitions never extracted (dead spec edge);
* states unreachable from the initial set over the declared graph;
* non-terminal states with no path to a terminal state — the machine
  would have no exit on a crash path;
* enum/spec membership drift and unanalyzable assignments.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro.analysis.callgraph import (
    ModuleInfo,
    enum_member_name,
    index_module,
    resolve_named_enum_sets,
)
from repro.analysis.cfg import CFG, statement_exprs
from repro.analysis.dataflow import ForwardAnalysis, solve, visit
from repro.analysis.engine import Violation

StateSet = FrozenSet[str]


@dataclass
class ProtocolSpec:
    """Declared shape of one protocol machine."""

    name: str
    path: str  # canonical module path the machine lives in
    enum: str  # enum class naming the states
    attribute: str  # attribute carrying the current state
    states: FrozenSet[str]
    initial: FrozenSet[str]
    terminal: FrozenSet[str]
    transitions: FrozenSet[Tuple[str, str]]
    owner: str = ""  # class owning the machine ("" = module-level driver)
    #: Targets enterable from *any* state (abort/teardown paths); edges
    #: into them need not be declared individually.
    from_any: FrozenSet[str] = frozenset()
    #: Function qualnames allowed to assign a computed (non-literal)
    #: state, with the set of states the computation may produce.
    dynamic: Mapping[str, FrozenSet[str]] = field(default_factory=dict)

    def declared_edges(self) -> Set[Tuple[str, str]]:
        """The full edge set: declared transitions plus from_any fans."""
        edges = set(self.transitions)
        for src in self.states:
            for dst in self.from_any:
                if src != dst:
                    edges.add((src, dst))
        return edges


@dataclass(frozen=True)
class Transition:
    src: str
    dst: str
    line: int
    func: str


@dataclass
class ExtractedMachine:
    """Everything extraction recovered from one module for one spec."""

    spec: ProtocolSpec
    path: str
    enum_line: int = 0
    members: Tuple[str, ...] = ()
    transitions: List[Transition] = field(default_factory=list)
    problems: List[Tuple[int, str]] = field(default_factory=list)
    entry_facts: Dict[str, StateSet] = field(default_factory=dict)

    def edge_set(self) -> Set[Tuple[str, str]]:
        return {(t.src, t.dst) for t in self.transitions}


# ---------------------------------------------------------------------------
# abstract interpretation
# ---------------------------------------------------------------------------


class _MachineAnalysis(ForwardAnalysis):
    """Fact: frozenset of states the machine may currently be in."""

    def __init__(
        self,
        spec: ProtocolSpec,
        entry: StateSet,
        qualname: str,
        named_sets: Mapping[str, Tuple[str, ...]],
    ):
        self.spec = spec
        self.entry = entry
        self.qualname = qualname
        self.named_sets = named_sets
        self.top: StateSet = spec.states

    def initial_fact(self) -> StateSet:
        return self.entry

    def join(self, a: StateSet, b: StateSet) -> StateSet:
        return a | b

    # -- transfer --------------------------------------------------------

    def transfer(self, stmt: ast.stmt, fact: StateSet) -> StateSet:
        targets = assignment_targets(stmt, self.spec, self.qualname)
        if targets is not None:
            known, _ = targets
            return known if known is not None else self.top
        if constructs_owner(stmt, self.spec):
            return self.spec.initial
        return fact

    # -- branch refinement ----------------------------------------------

    def refine(self, test: ast.expr, branch: bool, fact: StateSet) -> StateSet:
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            return self.refine(test.operand, not branch, fact)
        if isinstance(test, ast.BoolOp):
            # True(a and b) refines both; False(a or b) refines both
            # negated; the other two outcomes are disjunctive — no claim.
            if isinstance(test.op, ast.And) and branch:
                for value in test.values:
                    fact = self.refine(value, True, fact)
            elif isinstance(test.op, ast.Or) and not branch:
                for value in test.values:
                    fact = self.refine(value, False, fact)
            return fact
        if not isinstance(test, ast.Compare) or len(test.ops) != 1:
            return fact
        left, op, right = test.left, test.ops[0], test.comparators[0]
        if not self._is_state_expr(left):
            # Accept the mirrored spelling ``TcpState.X == self.state``.
            if self._is_state_expr(right) and isinstance(
                op, (ast.Eq, ast.NotEq, ast.Is, ast.IsNot)
            ):
                left, right = right, left
            else:
                return fact
        members = self._member_set(right)
        if members is None:
            return fact
        if isinstance(op, (ast.Eq, ast.Is, ast.In)):
            positive = branch
        elif isinstance(op, (ast.NotEq, ast.IsNot, ast.NotIn)):
            positive = not branch
        else:
            return fact
        return fact & members if positive else fact - members

    def _is_state_expr(self, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Attribute) and node.attr == self.spec.attribute
        )

    def _member_set(self, node: ast.expr) -> Optional[StateSet]:
        single = enum_member_name(node, self.spec.enum)
        if single is not None:
            return frozenset((single,))
        if isinstance(node, (ast.Tuple, ast.Set, ast.List)):
            members: Set[str] = set()
            for elt in node.elts:
                name = enum_member_name(elt, self.spec.enum)
                if name is None:
                    return None
                members.add(name)
            return frozenset(members)
        if isinstance(node, ast.Name) and node.id in self.named_sets:
            return frozenset(self.named_sets[node.id])
        return None


def assignment_targets(
    stmt: ast.stmt, spec: ProtocolSpec, qualname: str
) -> Optional[Tuple[Optional[StateSet], ast.stmt]]:
    """If ``stmt`` assigns the machine attribute, the states it may set.

    Returns ``None`` when the statement is not a machine assignment,
    ``(states, stmt)`` when it is (``states`` is ``None`` for an
    unanalyzable value — the caller reports it).
    """
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target, value = stmt.targets[0], stmt.value
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        target, value = stmt.target, stmt.value
    else:
        return None
    if not (isinstance(target, ast.Attribute) and target.attr == spec.attribute):
        return None
    states = _value_states(value, spec, qualname)
    return states, stmt


def _value_states(
    value: ast.expr, spec: ProtocolSpec, qualname: str
) -> Optional[StateSet]:
    member = enum_member_name(value, spec.enum)
    if member is not None:
        return frozenset((member,))
    if isinstance(value, ast.IfExp):
        body = _value_states(value.body, spec, qualname)
        orelse = _value_states(value.orelse, spec, qualname)
        if body is not None and orelse is not None:
            return body | orelse
    if qualname in spec.dynamic:
        return frozenset(spec.dynamic[qualname])
    return None


def constructs_owner(stmt: ast.stmt, spec: ProtocolSpec) -> bool:
    """``result = Owner(...)`` seeds the machine in its initial states."""
    if not spec.owner:
        return False
    if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
        return False
    value = stmt.value
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id == spec.owner
    )


# ---------------------------------------------------------------------------
# module extraction
# ---------------------------------------------------------------------------

_MAX_SUMMARY_ROUNDS = 10


class _Extractor:
    def __init__(self, spec: ProtocolSpec, tree: ast.AST, path: str):
        self.spec = spec
        self.tree = tree
        self.path = path
        self.module: ModuleInfo = index_module(path, tree)
        self.named_sets = resolve_named_enum_sets(tree, spec.enum)
        self.machine = ExtractedMachine(spec=spec, path=path)
        self.top: StateSet = spec.states
        self._cfgs: Dict[str, CFG] = {}
        self._dispatch_value_ids: Set[int] = set()
        self._collect_dispatch_value_ids()

    # -- helpers ---------------------------------------------------------

    def _cfg(self, qualname: str) -> CFG:
        if qualname not in self._cfgs:
            self._cfgs[qualname] = CFG(self.module.functions[qualname].node)
        return self._cfgs[qualname]

    def _collect_dispatch_value_ids(self) -> None:
        for node in ast.walk(self.tree):
            call = self._dispatch_call(node)
            if call is None:
                continue
            assert isinstance(call.func, ast.Attribute)
            mapping = call.func.value
            assert isinstance(mapping, ast.Dict)
            for value in mapping.values:
                self._dispatch_value_ids.add(id(value))
            if len(call.args) > 1:
                self._dispatch_value_ids.add(id(call.args[1]))

    def _dispatch_call(self, node: ast.AST) -> Optional[ast.Call]:
        """Match ``{Enum.X: self._m, ...}.get(<recv>.<attr>, fallback)``."""
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and isinstance(node.func.value, ast.Dict)
            and node.args
        ):
            return None
        probe = node.args[0]
        if not (
            isinstance(probe, ast.Attribute)
            and probe.attr == self.spec.attribute
        ):
            return None
        mapping = node.func.value
        for key in mapping.keys:
            if key is None or enum_member_name(key, self.spec.enum) is None:
                return None
        return node

    def _method_ref_name(self, node: ast.AST) -> Optional[str]:
        """``self._m`` / bare ``inner`` reference -> simple function name."""
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("self", "cls")
        ):
            return node.attr
        if isinstance(node, ast.Name):
            return node.id
        return None

    def _functions_named(self, name: str) -> List[str]:
        return [
            q for q, f in self.module.functions.items() if f.name == name
        ]

    # -- entry classification -------------------------------------------

    def _initial_entries(self) -> Dict[str, Optional[StateSet]]:
        escaped = self._escaped_function_names()
        entries: Dict[str, Optional[StateSet]] = {}
        for qualname, info in self.module.functions.items():
            if info.name == "__init__" and (
                not self.spec.owner or info.class_name == self.spec.owner
            ):
                entries[qualname] = frozenset()  # machine not yet seeded
            elif not info.name.startswith("_") or info.name in escaped:
                entries[qualname] = self.top
            else:
                entries[qualname] = None  # await a call-site fact
        return entries

    def _escaped_function_names(self) -> Set[str]:
        """Functions referenced as values (hooks, scheduled callbacks)."""
        call_func_ids = {
            id(n.func) for n in ast.walk(self.tree) if isinstance(n, ast.Call)
        }
        names = {f.name for f in self.module.functions.values()}
        escaped: Set[str] = set()
        for node in ast.walk(self.tree):
            if id(node) in call_func_ids or id(node) in self._dispatch_value_ids:
                continue
            ref = self._method_ref_name(node)
            if ref in names and not (
                isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
            ):
                escaped.add(ref)
        return escaped

    # -- the summary fixpoint -------------------------------------------

    def run(self) -> ExtractedMachine:
        self._extract_enum()
        self._check_field_defaults()
        entries = self._initial_entries()
        for _ in range(_MAX_SUMMARY_ROUNDS):
            changed = False
            for qualname in sorted(entries):
                entry = entries[qualname]
                if entry is None:
                    continue
                for callee, fact in self._call_facts(qualname, entry):
                    current = entries.get(callee)
                    merged = fact if current is None else current | fact
                    if merged != current:
                        entries[callee] = merged
                        changed = True
            if not changed:
                break
        for qualname in sorted(entries):
            entry = entries[qualname]
            if entry is not None:
                self.machine.entry_facts[qualname] = entry
                self._record(qualname, entry)
        return self.machine

    def _analysis(self, qualname: str, entry: StateSet) -> _MachineAnalysis:
        return _MachineAnalysis(self.spec, entry, qualname, self.named_sets)

    def _call_facts(
        self, qualname: str, entry: StateSet
    ) -> List[Tuple[str, StateSet]]:
        """(callee qualname, fact at call site) pairs for one function."""
        info = self.module.functions[qualname]
        analysis = self._analysis(qualname, entry)
        facts = solve(self._cfg(qualname), analysis)
        proposals: List[Tuple[str, StateSet]] = []

        def at_stmt(stmt: ast.stmt, fact: StateSet) -> None:
            for root in statement_exprs(stmt):
                for node in ast.walk(root):
                    dispatch = self._dispatch_call(node)
                    if dispatch is not None:
                        proposals.extend(self._dispatch_facts(dispatch, fact))
                        continue
                    if isinstance(node, ast.Call):
                        ref = self._method_ref_name(node.func)
                        if ref is None:
                            continue
                        for callee in self._functions_named(ref):
                            proposals.append((callee, fact))

        visit(self._cfg(qualname), facts, at_stmt)
        del info
        return proposals

    def _dispatch_facts(
        self, call: ast.Call, fact: StateSet
    ) -> List[Tuple[str, StateSet]]:
        assert isinstance(call.func, ast.Attribute)
        mapping = call.func.value
        assert isinstance(mapping, ast.Dict)
        proposals: List[Tuple[str, StateSet]] = []
        keys: Set[str] = set()
        for key, value in zip(mapping.keys, mapping.values):
            assert key is not None
            member = enum_member_name(key, self.spec.enum)
            assert member is not None
            keys.add(member)
            ref = self._method_ref_name(value)
            if ref is not None:
                narrowed = fact & frozenset((member,))
                for callee in self._functions_named(ref):
                    proposals.append((callee, narrowed))
        if len(call.args) > 1:
            ref = self._method_ref_name(call.args[1])
            if ref is not None:
                for callee in self._functions_named(ref):
                    proposals.append((callee, fact - frozenset(keys)))
        return proposals

    # -- recording -------------------------------------------------------

    def _record(self, qualname: str, entry: StateSet) -> None:
        analysis = self._analysis(qualname, entry)
        facts = solve(self._cfg(qualname), analysis)
        spec = self.spec

        def at_stmt(stmt: ast.stmt, fact: StateSet) -> None:
            result = assignment_targets(stmt, spec, qualname)
            if result is None:
                return
            states, node = result
            if states is None:
                self.machine.problems.append((
                    node.lineno,
                    f"unanalyzable assignment to .{spec.attribute} in"
                    f" {qualname}: value is neither a {spec.enum} member nor"
                    f" covered by a `dynamic` spec entry",
                ))
                return
            if not fact:
                # Machine not yet seeded (constructor): must initialise.
                bad = states - spec.initial
                if bad:
                    self.machine.problems.append((
                        node.lineno,
                        f"{qualname} initialises machine '{spec.name}' to"
                        f" {sorted(bad)}, not a declared initial state",
                    ))
                return
            for dst in sorted(states):
                for src in sorted(fact):
                    if src != dst:
                        self.machine.transitions.append(
                            Transition(src, dst, node.lineno, qualname)
                        )

        visit(self._cfg(qualname), facts, at_stmt)

    # -- enum / field checks ---------------------------------------------

    def _extract_enum(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ClassDef) and node.name == self.spec.enum:
                members = []
                for stmt in node.body:
                    if isinstance(stmt, ast.Assign):
                        for target in stmt.targets:
                            if isinstance(target, ast.Name):
                                members.append(target.id)
                self.machine.members = tuple(members)
                self.machine.enum_line = node.lineno
                return
        self.machine.problems.append((
            1, f"enum {self.spec.enum} not found in {self.path}",
        ))

    def _check_field_defaults(self) -> None:
        """Dataclass field defaults count as the machine's initial state."""
        if not self.spec.owner:
            return
        for node in ast.walk(self.tree):
            if not (isinstance(node, ast.ClassDef) and node.name == self.spec.owner):
                continue
            for stmt in node.body:
                if (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.target.id == self.spec.attribute
                    and stmt.value is not None
                ):
                    member = enum_member_name(stmt.value, self.spec.enum)
                    if member is not None and member not in self.spec.initial:
                        self.machine.problems.append((
                            stmt.lineno,
                            f"{self.spec.owner}.{self.spec.attribute} defaults"
                            f" to {member}, not a declared initial state",
                        ))


def extract_machine(spec: ProtocolSpec, tree: ast.AST, path: str) -> ExtractedMachine:
    return _Extractor(spec, tree, path).run()


# ---------------------------------------------------------------------------
# model checking
# ---------------------------------------------------------------------------


def check_machine(machine: ExtractedMachine) -> List[Tuple[int, str]]:
    """Spec-vs-extraction and spec-graph checks; (line, message) pairs."""
    spec = machine.spec
    problems: List[Tuple[int, str]] = list(machine.problems)
    anchor = machine.enum_line or 1

    # Spec internal sanity.
    for label, subset in (
        ("initial", spec.initial),
        ("terminal", spec.terminal),
        ("from_any", spec.from_any),
    ):
        stray = subset - spec.states
        if stray:
            problems.append((
                anchor,
                f"spec '{spec.name}': {label} states {sorted(stray)} are not"
                " declared states",
            ))
    for src, dst in sorted(spec.transitions):
        if src not in spec.states or dst not in spec.states:
            problems.append((
                anchor,
                f"spec '{spec.name}': transition {src} -> {dst} references"
                " undeclared states",
            ))

    # Enum membership drift.
    if machine.members:
        members = frozenset(machine.members)
        missing = spec.states - members
        undeclared = members - spec.states
        if missing:
            problems.append((
                anchor,
                f"spec '{spec.name}' declares states {sorted(missing)} that"
                f" {spec.enum} does not define",
            ))
        if undeclared:
            problems.append((
                anchor,
                f"{spec.enum} defines states {sorted(undeclared)} the spec"
                f" '{spec.name}' does not declare",
            ))

    # Undeclared extracted transitions.
    declared = spec.declared_edges()
    for transition in machine.transitions:
        edge = (transition.src, transition.dst)
        if edge not in declared:
            problems.append((
                transition.line,
                f"undeclared transition {transition.src} ->"
                f" {transition.dst} in {transition.func} (machine"
                f" '{spec.name}'); declare it in the spec or guard the"
                " assignment",
            ))

    # Dead spec edges: declared but never seen in code.
    extracted = machine.edge_set()
    for src, dst in sorted(spec.transitions):
        if dst in spec.from_any:
            continue
        if (src, dst) not in extracted:
            problems.append((
                anchor,
                f"spec '{spec.name}' declares transition {src} -> {dst}"
                " but no assignment performs it — dead spec edge, remove"
                " or implement it",
            ))

    # Reachability and crash exits over the declared graph.
    succs: Dict[str, Set[str]] = {s: set() for s in spec.states}
    for src, dst in declared:
        if src in succs:
            succs[src].add(dst)
    reachable = _closure(spec.initial, succs)
    for state in sorted(spec.states - reachable):
        problems.append((
            anchor,
            f"state {state} of machine '{spec.name}' is unreachable from"
            f" the initial states {sorted(spec.initial)}",
        ))
    for state in sorted(reachable - spec.terminal):
        if not (_closure(frozenset((state,)), succs) & spec.terminal):
            problems.append((
                anchor,
                f"state {state} of machine '{spec.name}' has no exit path"
                f" to a terminal state {sorted(spec.terminal)} — a crash"
                " while in it wedges the machine forever",
            ))
    return sorted(set(problems))


def _closure(seeds: FrozenSet[str], succs: Mapping[str, Set[str]]) -> Set[str]:
    seen: Set[str] = set(seeds)
    frontier = list(seeds)
    while frontier:
        state = frontier.pop()
        for nxt in succs.get(state, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def check_source(
    spec: ProtocolSpec, source: str, path: str
) -> List[Violation]:
    """Extract + check one source string; convenience for tests/CLI."""
    tree = ast.parse(source)
    machine = extract_machine(spec, tree, path)
    lines = source.splitlines()
    violations = []
    for line, message in check_machine(machine):
        snippet = lines[line - 1].strip() if 1 <= line <= len(lines) else ""
        violations.append(
            Violation(path, line, 0, "protocol", message, snippet)
        )
    return violations
