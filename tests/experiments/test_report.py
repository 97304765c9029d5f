"""Report tests: rows, aggregation, export."""

import csv
import json

import pytest

from repro.core.errors import ConfigError
from repro.experiments import (
    ScenarioSpec,
    aggregate,
    render_table,
    rows_from_results,
    to_csv,
    to_json,
)
from repro.experiments.runner import ScenarioResult


def result_for(metrics, **spec_fields):
    return ScenarioResult(
        spec=ScenarioSpec(**spec_fields), metrics=metrics
    )


RESULTS = [
    result_for({"cycles": 100, "mean_latency": 10.0}, load=0.1, seed=1),
    result_for({"cycles": 200, "mean_latency": 30.0}, load=0.1, seed=2),
    result_for({"cycles": 400, "mean_latency": 50.0}, load=0.2, seed=1),
]


class TestRows:
    def test_rows_flatten_spec_and_metrics(self):
        rows = rows_from_results(RESULTS)
        assert len(rows) == 3
        assert rows[0]["load"] == 0.1
        assert rows[0]["cycles"] == 100
        assert rows[0]["key"] == RESULTS[0].spec.key
        assert rows[0]["cached"] is False

    def test_traffic_params_become_columns(self):
        rows = rows_from_results(
            [result_for({"cycles": 1}, traffic_params={"interval": 9})]
        )
        assert rows[0]["traffic_params.interval"] == 9


class TestAggregate:
    def test_group_by_mean_min_max(self):
        agg = aggregate(RESULTS, by=("load",), metrics=("cycles",))
        assert [row["load"] for row in agg] == [0.1, 0.2]
        first = agg[0]
        assert first["n"] == 2
        assert first["cycles.mean"] == 150.0
        assert first["cycles.min"] == 100
        assert first["cycles.max"] == 200

    def test_columns_are_the_group_key_count_and_fixed_stats(self):
        agg = aggregate(RESULTS, by=("load",), metrics=("cycles",))
        assert list(agg[1]) == [
            "load", "n", "cycles.mean", "cycles.min", "cycles.max",
        ]
        assert [agg[1][k] for k in list(agg[1])[1:]] == [1, 400.0, 400, 400]

    def test_default_metrics_are_numeric(self):
        agg = aggregate(RESULTS, by=("load",))
        assert "cycles.mean" in agg[0]

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="group-by"):
            aggregate(RESULTS, by=("flux",))

    def test_empty_by_rejected(self):
        with pytest.raises(ConfigError, match="group-by"):
            aggregate(RESULTS, by=())

    def test_empty_results(self):
        assert aggregate([], by=("load",)) == []

    def test_default_metrics_union_across_results(self):
        """A metric missing (None) in the first scenario must still
        aggregate: a mixed-receptor sweep puts ``p50_latency=None`` on
        stochastic-receptor scenarios, and the default metric list used
        to be inferred from ``results[0]`` alone, silently dropping the
        column for the entire sweep."""
        results = [
            result_for(
                {"cycles": 100, "p50_latency": None},
                receptors="stochastic",
                load=0.1,
            ),
            result_for(
                {"cycles": 120, "p50_latency": 40.0},
                receptors="tracedriven",
                load=0.1,
            ),
            result_for(
                {"cycles": 140, "p50_latency": 60.0},
                receptors="tracedriven",
                load=0.2,
            ),
        ]
        agg = aggregate(results, by=("load",))
        # The column exists for every group...
        assert "p50_latency.mean" in agg[0]
        assert "p50_latency.mean" in agg[1]
        # ...aggregated over the scenarios that reported a number.
        assert agg[0]["p50_latency.mean"] == 40.0
        assert agg[1]["p50_latency.mean"] == 60.0

    def test_default_metrics_keep_first_seen_order(self):
        results = [
            result_for({"cycles": 1, "b_metric": 2.0}, load=0.1),
            result_for(
                {"cycles": 2, "a_metric": 1.0, "b_metric": 3.0}, load=0.2
            ),
        ]
        agg = aggregate(results, by=("load",))
        columns = list(agg[0])
        # Union keeps sweep order: metrics of the first result first,
        # later-only metrics appended in encounter order.
        assert columns.index("cycles.mean") < columns.index("b_metric.mean")
        assert columns.index("b_metric.mean") < columns.index("a_metric.mean")


class TestExport:
    def test_csv_round_trip(self, tmp_path):
        path = str(tmp_path / "out.csv")
        to_csv(rows_from_results(RESULTS), path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert rows[0]["cycles"] == "100"
        assert rows[2]["load"] == "0.2"

    def test_json_round_trip(self, tmp_path):
        path = str(tmp_path / "out.json")
        to_json(rows_from_results(RESULTS), path)
        with open(path) as fh:
            rows = json.load(fh)
        assert len(rows) == 3
        assert rows[0]["cycles"] == 100

    def test_render_table(self):
        text = render_table(
            rows_from_results(RESULTS), columns=("load", "cycles")
        )
        lines = text.splitlines()
        assert lines[0].split() == ["load", "cycles"]
        assert len(lines) == 2 + 3

    def test_render_empty(self):
        assert render_table([]) == "(no results)"


class TestAggregateOrdering:
    def test_numeric_groups_sort_numerically(self):
        results = [
            result_for({"cycles": d}, buffer_depth=d)
            for d in (16, 2, 8, 4)
        ]
        agg = aggregate(results, by=("buffer_depth",), metrics=("cycles",))
        assert [row["buffer_depth"] for row in agg] == [2, 4, 8, 16]

    def test_string_groups_sort_lexically(self):
        results = [
            result_for({"cycles": 1}, topology=t)
            for t in ("ring:4", "mesh:2:2", "paper")
        ]
        agg = aggregate(results, by=("topology",), metrics=("cycles",))
        assert [row["topology"] for row in agg] == [
            "mesh:2:2",
            "paper",
            "ring:4",
        ]
