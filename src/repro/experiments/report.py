"""Sweep aggregation and export.

The paper's evaluation figures are all *aggregations over sweeps* —
latency vs packets-per-burst, congestion vs routing case (Slides
20-22).  This module turns a list of
:class:`~repro.experiments.runner.ScenarioResult` into exactly that
kind of series: flat rows (spec fields + metrics), group-by
aggregation with mean/min/max statistics, CSV/JSON export for
external plotting, and a fixed-width table renderer for the CLI.

Everything here is deterministic: rows keep sweep order and groups
sort by their key (so the same results always render the same
report).
"""

from __future__ import annotations

import csv
import json
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.errors import ConfigError
from repro.experiments.runner import ScenarioResult

#: Metric columns the CLI shows by default (a readable subset; every
#: metric of ``repro.stats.summary`` remains available by name).
DEFAULT_METRICS = (
    "cycles",
    "mean_latency",
    "p95_latency",
    "accepted_flits_per_cycle",
    "congestion_rate",
)

#: Aggregate statistics computed per group: each column suffix and
#: the function of a group's values it holds.
STATS = (
    ("mean", lambda values: sum(values) / len(values)),
    ("min", min),
    ("max", max),
)


def _spec_row(spec) -> Dict[str, Any]:
    """The spec-derived columns of one row (no metrics)."""
    row: Dict[str, Any] = {"key": spec.key}
    fields = spec.to_dict()
    params = fields.pop("traffic_params")
    if spec.faults is not None:
        # Flat rows want a scalar cell: the schedule's content
        # hash stands in for the full event list.
        fields["faults"] = spec.faults.key
    row.update(fields)
    for name, value in sorted(params.items()):
        row[f"traffic_params.{name}"] = value
    return row


def rows_from_results(
    results: Sequence[ScenarioResult],
) -> List[Dict[str, Any]]:
    """Flatten results: one dict per scenario, spec fields + metrics.

    Spec fields and metric names share one namespace (metrics win on
    collision, which cannot happen with the stock names); traffic
    params appear as ``traffic_params.<name>`` columns.
    """
    rows = []
    for result in results:
        row = _spec_row(result.spec)
        row.update(result.metrics)
        row["cached"] = result.cached
        rows.append(row)
    return rows


def _group_key(row: Mapping[str, Any], by: Sequence[str]) -> Tuple:
    try:
        return tuple(row[field] for field in by)
    except KeyError as missing:
        raise ConfigError(
            f"unknown group-by field {missing}; available fields:"
            f" {sorted(row)}"
        ) from None


def aggregate(
    results: Sequence[ScenarioResult],
    by: Sequence[str],
    metrics: Optional[Sequence[str]] = None,
) -> List[Dict[str, Any]]:
    """Group results by spec fields and aggregate metric statistics.

    ``by`` names row fields (spec fields, ``traffic_params.<name>``,
    even metrics); ``metrics`` defaults to every metric name that
    carries a numeric value in *any* result (first-seen order across
    the sweep — a metric that is ``None`` in some scenarios, e.g.
    ``p50_latency`` without a latency histogram, still aggregates
    over the scenarios that do report it).  Output rows are sorted by
    group key and carry columns ``<metric>.<stat>`` for each of
    :data:`STATS`.

    A :class:`~repro.experiments.resilience.SweepReport` aggregates
    over its completed results and adds a ``missing`` column: how
    many of each group's scenarios failed or were quarantined, so a
    partial sweep can never masquerade as a complete one.  A group
    whose members all failed still appears, with ``n = 0`` and every
    statistic ``None``.  Plain result lists keep the old schema.
    """
    if not by:
        raise ConfigError("aggregate needs at least one group-by field")
    failures = list(getattr(results, "failures", ()))
    track_missing = hasattr(results, "failures")
    rows = rows_from_results(results)
    if not rows and not failures:
        return []
    if metrics is None:
        metrics = []
        seen = set()
        for result in results:
            for name, value in result.metrics.items():
                if (
                    name not in seen
                    and isinstance(value, (int, float))
                    and not isinstance(value, bool)
                ):
                    seen.add(name)
                    metrics.append(name)
    groups: Dict[Tuple, List[Mapping[str, Any]]] = {}
    for row in rows:
        groups.setdefault(_group_key(row, by), []).append(row)
    # Failure records group by their spec fields alone (they have no
    # metrics); a by-field they cannot provide — e.g. grouping by a
    # metric — lands as None rather than erroring the aggregation.
    missing: Dict[Tuple, int] = {}
    for failure in failures:
        frow = _spec_row(failure.spec)
        key = tuple(frow.get(field) for field in by)
        missing[key] = missing.get(key, 0) + 1
        groups.setdefault(key, [])

    def sort_value(value: Any) -> Tuple:
        # Numbers sort numerically (depth 16 after depth 2, not
        # before), everything else lexically, mixed types stably.
        if isinstance(value, bool) or not isinstance(
            value, (int, float)
        ):
            return (1, 0.0, str(value))
        return (0, float(value), "")

    out = []
    for key in sorted(
        groups, key=lambda k: tuple(sort_value(x) for x in k)
    ):
        members = groups[key]
        agg: Dict[str, Any] = dict(zip(by, key))
        agg["n"] = len(members)
        if track_missing:
            agg["missing"] = missing.get(key, 0)
        for metric in metrics:
            values = [
                m[metric]
                for m in members
                if isinstance(m.get(metric), (int, float))
                and not isinstance(m.get(metric), bool)
            ]
            for stat, function in STATS:
                agg[f"{metric}.{stat}"] = (
                    function(values) if values else None
                )
        out.append(agg)
    return out


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------
def _columns(rows: Sequence[Mapping[str, Any]]) -> List[str]:
    """Union of row keys, first-seen order (rows share a vocabulary)."""
    columns: List[str] = []
    for row in rows:
        for name in row:
            if name not in columns:
                columns.append(name)
    return columns


def to_csv(rows: Sequence[Mapping[str, Any]], path: str) -> str:
    """Write flat or aggregated rows as CSV; returns the path."""
    columns = _columns(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(dict(row))
    return path


def to_json(rows: Sequence[Mapping[str, Any]], path: str) -> str:
    """Write rows as a sorted-key JSON document; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(  # repro: allow[canonical-json] human-readable indented export; keys already sorted
            [dict(r) for r in rows], fh, indent=2, sort_keys=True
        )
        fh.write("\n")
    return path


def render_table(
    rows: Sequence[Mapping[str, Any]],
    columns: Optional[Sequence[str]] = None,
) -> str:
    """Fixed-width text table of selected columns (CLI output)."""
    if not rows:
        return "(no results)"
    columns = list(columns) if columns else _columns(rows)

    def fmt(value: Any) -> str:
        if isinstance(value, bool) or value is None:
            return str(value)
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    cells = [[fmt(row.get(c)) for c in columns] for row in rows]
    widths = [
        max(len(str(c)), *(len(r[i]) for r in cells))
        for i, c in enumerate(columns)
    ]
    lines = [
        "  ".join(str(c).ljust(w) for c, w in zip(columns, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)
