"""Summaries of run outputs, and the parent-versus-change comparison.

Each benchmark run writes one record (``<out>/<workload>/seed<S>.json``,
or ``seed<S>.trace.json`` for a traced run).  :func:`summarize` reduces
a directory of them to per-workload medians and quartiles;
:func:`compare` rules every (end-to-end metric, workload) pair of two
such directories against the bounds in ``BENCHMARK.json``:

* ``gain``: the change wins at least 9 in 10 seed-matched pairs and
  the medians differ, in its favour, by more than the parent's
  interquartile range;
* ``unresolved``: the spread (IQR / median) of either side exceeds the
  bound and the two sets of runs overlap;
* ``regression``: the change's median is worse than the parent's by
  more than the bound;
* ``ok``: none of these.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
from typing import Any, Dict, List, Mapping, Tuple

BENCHMARK_JSON = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "BENCHMARK.json"
)


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_runs(directory: str) -> List[Dict[str, Any]]:
    """Every run record under ``directory``."""
    runs = []
    pattern = os.path.join(directory, "**", "*.json")
    for path in sorted(glob.glob(pattern, recursive=True)):
        with open(path, encoding="utf-8") as fh:
            runs.append(json.load(fh))
    return runs


def summarize(runs: List[Mapping[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Per workload: each metric's runs by seed, median and quartiles.

    End-to-end metrics come from untraced runs, per-layer metrics from
    traced ones.
    """
    out: Dict[str, Dict[str, Any]] = {}
    for run in runs:
        metrics = out.setdefault(run["workload"], {})
        for name, metric in run["metrics"].items():
            entry = metrics.setdefault(
                name, {"unit": metric["unit"], "by_seed": {}}
            )
            entry["by_seed"][str(run["seed"])] = metric["value"]
    for metrics in out.values():
        for entry in metrics.values():
            values = list(entry["by_seed"].values())
            q1, median, q3 = quartiles(values)
            entry.update(n=len(values), q1=q1, median=median, q3=q3)
    return out


def _pairs(
    a: Mapping[str, float], b: Mapping[str, float]
) -> List[Tuple[float, float]]:
    """Runs of the same seed on both sides; by order if no seed matches."""
    common = sorted(set(a) & set(b))
    if common:
        return [(a[s], b[s]) for s in common]
    return list(zip(a.values(), b.values()))


def rule(
    parent: Mapping[str, Any],
    change: Mapping[str, Any],
    better: str,
    bound: float,
) -> str:
    """The ruling on one (metric, workload) pair; see the module doc."""
    sign = 1.0 if better == "lower" else -1.0
    base, new = parent["median"], change["median"]
    pairs = _pairs(parent["by_seed"], change["by_seed"])
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    if (
        pairs
        and wins >= 0.9 * len(pairs)
        and sign * (base - new) > parent["q3"] - parent["q1"]
    ):
        return "gain"
    spread = max(
        (
            (side["q3"] - side["q1"]) / abs(side["median"])
            for side in (parent, change)
            if side["median"]
        ),
        default=0.0,
    )
    a = [sign * v for v in parent["by_seed"].values()]
    b = [sign * v for v in change["by_seed"].values()]
    separated = max(b) < min(a) or min(b) > max(a)
    if spread > bound and not separated:
        return "unresolved"
    if base and sign * (new - base) / abs(base) > bound:
        return "regression"
    return "ok"


def compare(
    parent_dir: str, change_dir: str, benchmark: Mapping[str, Any]
) -> List[Dict[str, Any]]:
    """One row per (end-to-end metric, workload) present on both sides."""
    parent = summarize([r for r in load_runs(parent_dir) if not r["trace"]])
    change = summarize([r for r in load_runs(change_dir) if not r["trace"]])
    rows = []
    for workload in sorted(set(parent) & set(change)):
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            if name not in parent[workload] or name not in change[workload]:
                continue
            p, c = parent[workload][name], change[workload][name]
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "parent": (p["q1"], p["median"], p["q3"], p["n"]),
                "change": (c["q1"], c["median"], c["q3"], c["n"]),
                "ruling": rule(p, c, metric["better"], metric["bound"]),
            })
    return rows


def render(rows: List[Mapping[str, Any]]) -> str:
    lines = [
        f"{'workload':<15} {'metric':<13} {'parent q1/median/q3 (n)':>36}"
        f" {'change q1/median/q3 (n)':>36}  ruling"
    ]
    for row in rows:
        cells = [
            "{:.4g}/{:.4g}/{:.4g} ({})".format(*row[side])
            for side in ("parent", "change")
        ]
        lines.append(
            f"{row['workload']:<15} {row['metric']:<13} {cells[0]:>36}"
            f" {cells[1]:>36}  {row['ruling']}"
        )
    return "\n".join(lines)


def load_benchmark() -> Dict[str, Any]:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)
