"""Static correctness analysis for the failover reproduction.

``repro.analysis`` is an AST linter purpose-built for this codebase.  It
encodes the correctness contract the paper's merge logic depends on as
machine-checked rules (see DESIGN.md §8):

* ``seq-arith`` — sequence numbers live in Z/2^32; raw ``+``/``-``/
  ordering comparisons on seq-flavoured values outside
  :mod:`repro.tcp.seqnum` are wrap bugs waiting to happen.
* ``rng-source`` / ``wallclock`` / ``set-order`` — determinism: every
  random draw must come from a seeded, named stream and nothing in the
  simulation may read the wall clock or depend on set iteration order,
  or chaos-matrix runs stop being bit-for-bit replayable.
* ``sim-import`` / ``checksum-pair`` — sim-safety: the protocol layers
  must not touch real sockets/threads/clocks, and bridge code that
  rewrites TCP segment fields must fix the checksum in the same
  function (the paper's RFC 1624 incremental update, §3.1).
* ``handler-except`` — event/timer callbacks must not swallow errors
  with bare ``except``.
* ``unused-import`` — a name a ``src/`` module imports must be read
  there or imported from it by another module.

``--semantic`` adds the CFG/dataflow plane (DESIGN.md §13): flow- and
path-sensitive interprocedural rules (``seq-taint``,
``checksum-staleness``, ``mutation-escape``) built on
:mod:`repro.analysis.cfg` + :mod:`repro.analysis.dataflow`, and the
``protocol`` rule, which statically extracts the TcpState /
reintegration / takeover state machines and model-checks them against
the declared specs in :mod:`repro.analysis.specs`.

Run it with ``python -m repro.analysis [paths...]`` or ``python -m repro
lint``.  The one way to accept a finding is a justified pragma on its
line::

    something_odd()  # replint: allow(wallclock) -- bench reporting only

A pragma without a reason, an unparseable one and an unused one are
findings themselves.
"""

from __future__ import annotations

from repro.analysis.cli import main
from repro.analysis.engine import FileContext, LintEngine, Violation, lint_paths, lint_source
from repro.analysis.rules import ALL_RULES, SEMANTIC_RULES, Rule

__all__ = [
    "ALL_RULES",
    "SEMANTIC_RULES",
    "FileContext",
    "LintEngine",
    "Rule",
    "Violation",
    "lint_paths",
    "lint_source",
    "main",
]
