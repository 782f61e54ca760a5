"""Rule registry.

``ALL_RULES`` is the default (syntactic, per-statement) rule set,
ordered by rough severity (correctness first, hygiene last).
``SEMANTIC_RULES`` holds the CFG/dataflow and model-checking passes
enabled by ``repro lint --semantic`` — separated because they cost
fixpoints over the whole run, and because the fixture corpus for the
syntactic rules must keep linting identically whether or not the
semantic plane is installed.
"""

from __future__ import annotations

from typing import List, Type

from repro.analysis.rules.base import Rule
from repro.analysis.rules.checksum_staleness import ChecksumStalenessRule
from repro.analysis.rules.determinism import RngSourceRule, SetOrderRule, WallclockRule
from repro.analysis.rules.handler_hygiene import HandlerExceptRule
from repro.analysis.rules.mutation_escape import MutationEscapeRule
from repro.analysis.rules.obs_passive import ObsPassiveRule
from repro.analysis.rules.protocol import ProtocolRule
from repro.analysis.rules.seq_arith import SeqArithRule
from repro.analysis.rules.seq_taint import SeqTaintRule
from repro.analysis.rules.sim_safety import ChecksumPairRule, SimImportRule
from repro.analysis.rules.trace_args import EagerTraceArgRule
from repro.analysis.rules.unused_import import UnusedImportRule

ALL_RULES: List[Type[Rule]] = [
    SeqArithRule,
    ChecksumPairRule,
    SimImportRule,
    ObsPassiveRule,
    RngSourceRule,
    WallclockRule,
    SetOrderRule,
    HandlerExceptRule,
    EagerTraceArgRule,
    UnusedImportRule,
]

#: Interprocedural / flow-sensitive passes (``repro lint --semantic``).
SEMANTIC_RULES: List[Type[Rule]] = [
    SeqTaintRule,
    ChecksumStalenessRule,
    MutationEscapeRule,
    ProtocolRule,
]

__all__ = [
    "ALL_RULES",
    "SEMANTIC_RULES",
    "ChecksumPairRule",
    "ChecksumStalenessRule",
    "EagerTraceArgRule",
    "HandlerExceptRule",
    "MutationEscapeRule",
    "ObsPassiveRule",
    "ProtocolRule",
    "Rule",
    "RngSourceRule",
    "SeqArithRule",
    "SeqTaintRule",
    "SetOrderRule",
    "SimImportRule",
    "UnusedImportRule",
    "WallclockRule",
]
