"""Unit tests for the bench harness: runner, paired timer, perf markers.

Running the perf benches themselves stays out of tier-1 (they are
``-m perf``); these tests cover the runner's selection logic
(``benchmarks/run_all.py``), the one timer every speed ratio goes
through (``benchmarks/bench_ratios.paired``), and the marker that keeps
each bench out of tier-1.
"""

import ast
import math
import os

import pytest

from benchmarks import run_all
from benchmarks.bench_ratios import paired


class TestDiscovery:
    def test_discovers_every_bench_file(self):
        names = [p.rsplit("/", 1)[-1] for p in run_all.discover_benches()]
        assert "bench_ratios.py" in names
        assert "bench_table2_speed.py" in names
        assert all(n.startswith("bench_") for n in names)
        assert names == sorted(names)

    def test_only_filters_by_substring(self):
        names = [
            p.rsplit("/", 1)[-1]
            for p in run_all.discover_benches(["table2", "ratios"])
        ]
        assert names == [
            "bench_table2_speed.py",
            "bench_ratios.py",
        ]

    def test_unknown_filter_is_loud(self):
        with pytest.raises(SystemExit, match="matches no bench file"):
            run_all.discover_benches(["definitely_not_a_bench"])

    def test_duplicate_matches_deduplicated(self):
        paths = run_all.discover_benches(["ratios", "bench_ratios"])
        assert len(paths) == 1


class FakeClock:
    """A clock that moves only when a timed side says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def side(self, name, durations, log):
        """A callable that logs ``name`` and takes the next duration."""
        durations = iter(durations)

        def run():
            log.append(name)
            self.now += next(durations)
            return f"{name}{len(log)}"

        return run


class TestPaired:
    def test_sides_alternate_which_runs_first(self):
        clock, log = FakeClock(), []
        ratio = paired(
            clock.side("a", [1] * 4, log),
            clock.side("b", [1] * 4, log),
            4,
            clock=clock,
        )
        assert log == ["a", "b", "b", "a", "a", "b", "b", "a"]
        # Each side's value from its last run comes back.
        assert (ratio.a, ratio.b) == ("a8", "b7")

    def test_quartiles_of_per_pair_ratios(self):
        clock, log = FakeClock(), []
        ratio = paired(
            clock.side("a", [6, 2, 10, 4, 8], log),
            clock.side("b", [2] * 5, log),
            5,
            clock=clock,
        )
        assert ratio[:3] == (2.0, 3.0, 4.0)

    def test_quartiles_interpolate_between_pairs(self):
        clock, log = FakeClock(), []
        ratio = paired(
            clock.side("a", [4, 1, 3, 2], log),
            clock.side("b", [1] * 4, log),
            4,
            clock=clock,
        )
        assert ratio[:3] == (1.75, 2.5, 3.25)

    @pytest.mark.parametrize(
        "t_a, t_b, expected",
        [(3, 0, math.inf), (0, 3, 0.0), (0, 0, 1.0)],
        ids=["zero-b", "zero-a", "both-zero"],
    )
    def test_zero_duration_side(self, t_a, t_b, expected):
        clock, log = FakeClock(), []
        ratio = paired(
            clock.side("a", [t_a] * 3, log),
            clock.side("b", [t_b] * 3, log),
            3,
            clock=clock,
        )
        assert ratio[:3] == (expected, expected, expected)

    def test_infinite_ratio_does_not_poison_the_quartiles(self):
        clock, log = FakeClock(), []
        ratio = paired(
            clock.side("a", [2, 2, 2], log),
            clock.side("b", [1, 0, 0], log),
            3,
            clock=clock,
        )
        assert ratio[:3] == (math.inf, math.inf, math.inf)
        assert not any(math.isnan(q) for q in ratio[:3])


def _is_perf_mark(node):
    return (
        isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["pytestmark"]
        and ast.unparse(node.value) == "pytest.mark.perf"
    )


@pytest.mark.parametrize(
    "path", run_all.discover_benches(), ids=os.path.basename
)
def test_every_bench_is_perf_marked(path):
    """An unmarked bench would run inside tier-1 and rewrite its
    ``benchmarks/results/*.txt`` artefact in the checkout."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    assert any(_is_perf_mark(node) for node in tree.body), (
        f"{os.path.basename(path)} lacks a module-level"
        f" 'pytestmark = pytest.mark.perf'"
    )


class TestMain:
    def test_list_prints_plan_without_running(self, capsys):
        code = run_all.main(["--list", "--only", "ratios"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip() == "bench_ratios.py"
