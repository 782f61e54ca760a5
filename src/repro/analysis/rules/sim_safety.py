"""Sim-safety rules: ``sim-import`` and ``checksum-pair``.

``sim-import`` keeps the deterministic layers (sim/tcp/failover/net)
hermetic: no real sockets, threads or host clocks — everything flows
through the discrete-event engine.  It also keeps the whole package
shippable: nothing under ``src/repro/`` may import the test tree, which
an installed ``repro`` does not have.  And it keeps modules that promise
to be pure (:data:`_PURE_MODULES`) from importing what they promise not
to know.

``checksum-pair`` enforces the paper's §3.1 contract in bridge code:
whenever a TCP segment's addressed fields are rewritten (Δseq shift,
merged ACK/window, diverted ports), the checksum must be fixed in the
same function — either incrementally (:func:`incremental_rewrite`,
RFC 1624) or by resealing (:meth:`TcpSegment.sealed`, which the bridges'
``_emit`` performs for every outgoing segment).  A bare
``dataclasses.replace`` that escapes those paths would put a segment on
the wire with a stale checksum, which the receiving TCP drops — a bug
that only surfaces as a mysterious stall.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import FileContext, Violation
from repro.analysis.rules.base import Rule, call_name, in_sim_layers, in_src

#: Modules that reach outside the simulation.
_FORBIDDEN_IMPORTS = frozenset({
    "socket", "threading", "multiprocessing", "subprocess", "selectors",
    "asyncio", "time",
})

#: Pure modules: file -> package prefixes it may not import.  The bridge
#: core is the paper's algorithm and the TCP core the RFCs' and nothing
#: else — no simulator, host, IP layer or observer — so each can be driven
#: without any of them.
_IMPURE = (
    "repro.sim", "repro.net.host", "repro.net.ip", "repro.net.nic",
    "repro.net.ethernet", "repro.obs", "repro.harness",
)
_PURE_MODULES = {
    "src/repro/failover/core.py": _IMPURE,
    "src/repro/tcp/core.py": _IMPURE,
}

#: ``replace(...)`` keywords that rewrite addressed TCP header fields.
_SEGMENT_FIELDS = frozenset({
    "seq", "ack", "window", "flags", "src_port", "dst_port",
})

#: Calls that fix or recompute the checksum.  ``_emit`` counts: both
#: bridges seal every segment there (``segment.sealed(...)``) before it
#: reaches the wire.
_CHECKSUM_FIXUPS = frozenset({
    "incremental_rewrite", "sealed", "compute_checksum", "_emit",
})


class SimImportRule(Rule):
    name = "sim-import"
    description = (
        "real socket/threading/time imports in the deterministic layers"
        " (sim, tcp, failover, net); test-tree imports anywhere in src/repro;"
        " simulator/host/observer imports in a pure module"
    )

    def applies_to(self, path: str) -> bool:
        return in_src(path)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        hermetic = in_sim_layers(ctx.path)
        impure = _PURE_MODULES.get(ctx.path, ())
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
                if impure:  # ``from repro import obs`` names a module too
                    modules += [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                modules = []
                if hermetic and isinstance(node, ast.Call) and call_name(node) == "sleep":
                    yield ctx.violation(
                        node, self.name,
                        "sleep() blocks the host; schedule with"
                        " Simulator.call_later / process timeouts",
                    )
            for module in modules:
                root = module.split(".")[0]
                if root == "tests":
                    yield ctx.violation(
                        node, self.name,
                        f"`{module}` imported under src/repro; an installed"
                        " package has no test tree, so the code it needs"
                        " belongs in src/",
                    )
                elif hermetic and root in _FORBIDDEN_IMPORTS:
                    yield ctx.violation(
                        node, self.name,
                        f"`{module}` imported in a deterministic layer;"
                        " use the Simulator event loop instead of real"
                        " I/O, threads or clocks",
                    )
                elif any(
                    module == prefix or module.startswith(prefix + ".")
                    for prefix in impure
                ):
                    yield ctx.violation(
                        node, self.name,
                        f"`{module}` imported in a pure module; it reaches"
                        " the outside through the sink it is handed",
                    )
                    break  # one finding per import statement


class ChecksumPairRule(Rule):
    name = "checksum-pair"
    description = (
        "segment header rewrite via replace(...) without a checksum fixup"
        " (incremental_rewrite/sealed/_emit) in the same function"
    )

    def applies_to(self, path: str) -> bool:
        return path.startswith("src/repro/failover/")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for scope in ast.walk(ctx.tree):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            rewrites = []
            fixed = False
            for node in ast.walk(scope):
                if not isinstance(node, ast.Call):
                    continue
                name = call_name(node)
                if name in _CHECKSUM_FIXUPS:
                    fixed = True
                elif name == "replace" and any(
                    kw.arg in _SEGMENT_FIELDS for kw in node.keywords
                ):
                    rewrites.append(node)
            if fixed:
                continue
            for node in rewrites:
                fields = sorted(
                    kw.arg for kw in node.keywords if kw.arg in _SEGMENT_FIELDS
                )
                yield ctx.violation(
                    node, self.name,
                    f"replace(..., {', '.join(fields)}) rewrites addressed"
                    " header fields but this function never fixes the"
                    " checksum; pair it with incremental_rewrite()/.sealed()"
                    " or emit via _emit (paper §3.1, RFC 1624)",
                )
