# Every import is read, listed in __all__, or imported from this module
# by another one (the package __init__ linted beside it re-exports
# Tracer, and may itself import names it never reads).
from __future__ import annotations

import os.path
from typing import TYPE_CHECKING, Sequence

from repro.sim.trace import Tracer
from repro.tcp.seqnum import seq_add, seq_lt

if TYPE_CHECKING:
    from repro.sim.engine import Simulator

__all__ = ["joined", "seq_lt"]


def joined(parts: Sequence[str], sim: "Simulator") -> str:
    return os.path.join(*parts) + str(seq_add(0, 1))
