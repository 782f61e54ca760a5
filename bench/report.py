"""Plain-text rendering of a benchmark report: every metric, by name, with unit."""

from __future__ import annotations

from typing import Dict, List

from bench.spec import HOST_ESTIMATOR, HOST_METRICS, tail_kind


def number(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer() and abs(value) < 1e15:
        return f"{int(value):d}"
    return f"{value:.4g}"


def end_to_end_table(entry: Dict, spec: Dict, cell) -> List[str]:
    lines = [
        f"== {entry['workload']}  (seed {entry['seed']}, fingerprint {entry['fingerprint'][:12]})",
        f"   op: {cell.op}; tail: {tail_kind(entry['attempted'] - entry['failed'])}; "
        f"ops attempted {entry['attempted']}, failed {entry['failed']}",
        f"   {'metric':<18}{'unit':<7}{'kind':<11}{'value':>12}{'is the':>8}{'median':>11}"
        f"{'min':>11}{'q1':>11}{'q3':>11}{'K':>4}  bound",
    ]
    for metric in spec["end_to_end"]:
        name = metric["name"]
        bound = f"{metric['bound']:.0%} ({metric['better']} is better)"
        if name in HOST_METRICS:
            s = entry["host"][name]
            lines.append(
                f"   {name:<18}{metric['unit']:<7}{'host':<11}{number(s['value']):>12}"
                f"{HOST_ESTIMATOR[name]:>8}{number(s['median']):>11}{number(s['min']):>11}"
                f"{number(s['q1']):>11}{number(s['q3']):>11}{s['k']:>4}  {bound}"
            )
        else:
            lines.append(
                f"   {name:<18}{metric['unit']:<7}{'simulated':<11}"
                f"{number(entry['simulated'][name]):>12}{'':>56}  {bound}"
            )
    lines.append(
        f"   {'op_fail_share':<18}{'ratio':<7}{'both':<11}{number(entry['op_fail_share']):>12}"
        f"{'':>56}  0 (absolute)"
    )
    for problem in entry["problems"]:
        lines.append(f"   ! {problem}")
    return lines


def layer_table(report: Dict[str, Dict], spec: Dict) -> List[str]:
    names = list(report)
    width = max(13, *(len(name) + 2 for name in names))
    lines = ["== per-layer ledger (traced run)",
             f"   {'metric':<34}{'unit':<7}" + "".join(f"{n:>{width}}" for n in names)]
    for metric in spec["per_layer"]:
        row = "".join(f"{number(report[n]['layers'][metric['name']]):>{width}}" for n in names)
        lines.append(f"   {metric['name']:<34}{metric['unit']:<7}{row}")
    return lines


def render(report: Dict[str, Dict], spec: Dict, cells: Dict[str, type], environment: Dict) -> str:
    lines = [
        "bench: " + ", ".join(f"{key}={value}" for key, value in environment.items()),
        "",
    ]
    for name, entry in report.items():
        lines += end_to_end_table(entry, spec, cells[name])
        lines.append("")
    lines += layer_table(report, spec)
    return "\n".join(lines)
