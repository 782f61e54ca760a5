"""What one experiment run produced: the value every catalogue function returns.

A :class:`Report` carries the tables and free-text lines a person reads,
the ``repro.bench/v1`` payload a machine reads, and the raw measurements
the shape assertions under ``benchmarks/`` are written against.  There is
one :meth:`Report.render` and one :meth:`Report.write`; ``python -m repro``
and the pytest benchmarks both go through them, so a figure has one table
layout and one artifact shape however it was produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.bench import write_bench_artifact


@dataclass
class Table:
    title: str
    header: Sequence[str]
    rows: Sequence[Sequence[object]]

    def lines(self) -> List[str]:
        widths = [
            max(len(str(cell)) for cell in column)
            for column in zip(self.header, *self.rows)
        ]
        return [
            f"== {self.title} ==",
            " | ".join(h.ljust(w) for h, w in zip(self.header, widths)),
            "-+-".join("-" * w for w in widths),
            *(
                " | ".join(str(c).ljust(w) for c, w in zip(row, widths))
                for row in self.rows
            ),
        ]


@dataclass
class Report:
    """Tables, then notes, on stdout; ``BENCH_<name>.json`` on disk.

    ``name`` is ``None`` for a view that files nothing (the ``obs``
    views); ``raw`` is whatever the experiment measured before it was
    formatted, in a shape its catalogue function documents.
    """

    name: Optional[str] = None
    params: Dict[str, object] = field(default_factory=dict)
    results: List[Dict[str, object]] = field(default_factory=list)
    stats: Optional[Dict[str, Dict[str, float]]] = None
    phases: Optional[Dict[str, float]] = None
    tables: List[Table] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    raw: Any = None

    def render(self) -> str:
        lines: List[str] = []
        for table in self.tables:
            lines.append("")
            lines.extend(table.lines())
        lines.extend(self.notes)
        return "\n".join(lines)

    def write(self, directory=None) -> str:
        """Validate and file the artifact (in *directory*, else
        ``$REPRO_BENCH_DIR``, else the working directory); returns its path."""
        return write_bench_artifact(
            self.name, self.params, self.results,
            stats=self.stats, phases=self.phases, directory=directory,
        )
