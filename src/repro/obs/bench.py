"""Machine-readable benchmark artifacts (``BENCH_*.json``).

Every benchmark run (pytest benchmarks under ``benchmarks/`` and the
``python -m repro`` experiment runner) writes one JSON document per
experiment so perf trajectories can be compared across commits — the
baseline future optimisation PRs are judged against.

Schema ``repro.bench/v1``::

    {
      "schema": "repro.bench/v1",
      "name": "fig3_setup_times",            # artifact name
      "params": {...},                       # run configuration (JSON scalars)
      "results": [                           # one row per measured case
        {"label": "intra 64B", "metrics": {"median_us": 287.0, ...}},
        ...
      ],
      "stats": {"intra 64B": {"count": ..., "median": ..., "p99": ...,
                 "stddev": ...}, ...},       # optional full Stats dumps
      "phases": {"detection": 0.0153, ...}   # optional failover breakdown
    }

``validate_bench_doc`` is the schema check the test-suite runs against
freshly produced artifacts.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

SCHEMA_ID = "repro.bench/v1"

#: Environment variable that redirects artifact output (CI sets it).
BENCH_DIR_ENV = "REPRO_BENCH_DIR"


def bench_artifact_path(name: str, directory=None) -> str:
    base = directory or os.environ.get(BENCH_DIR_ENV) or "."
    return os.path.join(base, f"BENCH_{name}.json")


def write_bench_artifact(
    name: str,
    params: Dict[str, object],
    results: List[Dict[str, object]],
    stats: Optional[Dict[str, Dict[str, float]]] = None,
    phases: Optional[Dict[str, float]] = None,
    directory=None,
) -> str:
    """Validate and write one artifact; returns the file path."""
    doc: Dict[str, object] = {
        "schema": SCHEMA_ID,
        "name": name,
        "params": params,
        "results": results,
    }
    if stats is not None:
        doc["stats"] = stats
    if phases is not None:
        doc["phases"] = phases
    errors = validate_bench_doc(doc)
    if errors:
        raise ValueError(f"invalid bench artifact {name!r}: {errors}")
    path = bench_artifact_path(name, directory)
    # The directory is usually a --bench-dir typed after a long run.
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_bench_doc(doc) -> List[str]:
    """Return a list of schema violations (empty = valid)."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not an object"]
    if doc.get("schema") != SCHEMA_ID:
        errors.append(f"schema must be {SCHEMA_ID!r}, got {doc.get('schema')!r}")
    if not isinstance(doc.get("name"), str) or not doc.get("name"):
        errors.append("name must be a non-empty string")
    if not isinstance(doc.get("params"), dict):
        errors.append("params must be an object")
    results = doc.get("results")
    if not isinstance(results, list):
        errors.append("results must be a list")
    else:
        for i, row in enumerate(results):
            if not isinstance(row, dict):
                errors.append(f"results[{i}] is not an object")
                continue
            if not isinstance(row.get("label"), str) or not row.get("label"):
                errors.append(f"results[{i}].label must be a non-empty string")
            metrics = row.get("metrics")
            if not isinstance(metrics, dict) or not metrics:
                errors.append(f"results[{i}].metrics must be a non-empty object")
                continue
            for key, value in metrics.items():
                if not _is_number(value):
                    errors.append(f"results[{i}].metrics[{key!r}] is not a number")
    stats = doc.get("stats")
    if stats is not None:
        if not isinstance(stats, dict):
            errors.append("stats must be an object")
        else:
            for label, entry in stats.items():
                if not isinstance(entry, dict) or not all(
                    _is_number(v) for v in entry.values()
                ):
                    errors.append(f"stats[{label!r}] must map names to numbers")
    phases = doc.get("phases")
    if phases is not None:
        if not isinstance(phases, dict) or not all(
            _is_number(v) for v in phases.values()
        ):
            errors.append("phases must map phase names to numbers")
    extra = set(doc) - {"schema", "name", "params", "results", "stats", "phases"}
    if extra:
        errors.append(f"unknown top-level keys: {sorted(extra)}")
    return errors


def load_bench_artifact(path) -> Dict[str, object]:
    """Read an artifact back, raising on schema violations."""
    with open(path) as fh:
        doc = json.load(fh)
    errors = validate_bench_doc(doc)
    if errors:
        raise ValueError(f"invalid bench artifact at {path}: {errors}")
    return doc
