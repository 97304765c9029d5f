"""Unit tests for the bench harness: runner, paired timer, perf markers.

Running the perf benches themselves stays out of tier-1 (they are
``-m perf``); these tests cover the runner's selection logic
(``benchmarks/run_all.py``), the one timer every speed ratio goes
through (``benchmarks/bench_ratios.paired``), the marker that keeps
each bench out of tier-1, the traffic params the benches (and the
examples and sources, which tier-1 does not execute either) spell, and
that every source definition is reached by something besides tests.
"""

import ast
import glob
import math
import os
import re

import pytest

from benchmarks import run_all
from benchmarks.bench_ratios import paired
from repro.core.config import TRAFFIC_MODELS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


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


#: ``src/repro`` definitions that only tests reach, each with the reason
#: it stays.  :func:`test_every_definition_is_reached_outside_tests`
#: fails on any other such definition and on a stale entry here.
TEST_ONLY = {
    # Test oracles.
    "repro.noc.network.Network.scan_in_flight_flits":
        "oracle: full scan the O(1) in-flight counter is checked against",
    "repro.telemetry.trace.FlitTracer.to_perfetto":
        "oracle: the Perfetto document parsed back from the written bytes",
    "repro.experiments.spec.ScenarioSpec.stream_seed":
        "oracle: one generator's seed, against the batched derivation",
    **{
        f"repro.traffic.{module}.{cls}.expected_load":
            "oracle: the analytic load measured load is compared against"
        for module, cls in (
            ("base", "TrafficModel"), ("burst", "BurstTraffic"),
            ("onoff", "OnOffTraffic"), ("poisson", "PoissonTraffic"),
            ("trace", "TraceTraffic"), ("uniform", "UniformTraffic"),
        )
    },
    # Read-only accessors tests observe state through.
    "repro.noc.network.Network.link_between": "read-only accessor",
    "repro.noc.network.Network.quiescent": "read-only accessor",
    "repro.noc.switch.Switch.output_credits": "read-only accessor",
    "repro.noc.buffer.FlitBuffer.free_slots": "read-only accessor",
    "repro.noc.link.Link.busy_cycles": "read-only accessor",
    "repro.noc.ni.NetworkInterface.idle": "read-only accessor",
    "repro.stats.runtime.SpeedReport.modes": "read-only accessor",
    "repro.fpga.power.PowerReport.row_for": "read-only accessor",
    "repro.fpga.synthesis.SynthesisReport.row_for": "read-only accessor",
    # Decided by open ROADMAP items.
    "repro.core.processor.Processor.read_generator_counters":
        "item 6 (register reads) decides the processor",
    "repro.core.processor.Processor.read_receptor_counters":
        "item 6 (register reads) decides the processor",
    "repro.core.processor.Processor.drain_histogram":
        "item 6 (register reads) decides the processor",
    "repro.core.flow.FlowReport.hardware_steps_skipped":
        "item 6 (register reads) decides the flow",
    "repro.stats.latency.LatencyAnalyzer.bursts_seen":
        "item 1: its _burst_acc is checkpoint state (schema 2)",
    "repro.stats.latency.LatencyAnalyzer.mean_latency_per_burst":
        "item 1: its _burst_acc is checkpoint state (schema 2)",
    "repro.stats.latency.LatencyAnalyzer.mean_burst_size":
        "item 1: its _burst_acc is checkpoint state (schema 2)",
    "repro.analysis.baseline.render_baseline":
        "item 9: writer of the lint baseline format; no command yet",
    "repro.traffic.generator.TrafficGenerator.recorded_trace":
        "item 9: goes with the generator's record option",
    "repro.traffic.rng.LfsrRandom.geometric":
        "item 9: an RNG draw no traffic model makes",
}

#: A string that names a definition by dotted path, as ``getattr``
#: targets and the benchmark's wrapped layers do.
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _python_files(top):
    for folder, _dirs, files in os.walk(os.path.join(ROOT, top)):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(folder, name)


def _export_map_nodes(tree):
    """The nodes of ``__all__`` lists and ``lazy_exports`` name maps,
    which list names without reaching them."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in node.targets
        ):
            skip.update(map(id, ast.walk(node.value)))
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "lazy_exports"
        ):
            for arg in node.args[1:]:
                skip.update(map(id, ast.walk(arg)))
    return skip


def _names_used(tree):
    """``(name, line)`` of every name the code in ``tree`` refers to:
    names, attributes, imports and dotted-path strings."""
    skip = _export_map_nodes(tree)
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                yield part, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED.fullmatch(node.value):
                for part in node.value.split("."):
                    yield part, node.lineno


def _definitions(module, tree):
    """``(dotted name, name, first line, last line)`` of every
    top-level function and class and every non-dunder method."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield f"{module}.{node.name}", node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, kinds[:2]) and not (
                    member.name.startswith("__")
                    and member.name.endswith("__")
                ):
                    yield (
                        f"{module}.{node.name}.{member.name}", member.name,
                        member.lineno, member.end_lineno,
                    )


def test_every_definition_is_reached_outside_tests():
    """Each definition in ``src/repro`` is named by code in ``src/``
    outside its own body, or in ``benchmarks/`` or ``examples/``; a
    definition only tests reach is dead code, or belongs in
    :data:`TEST_ONLY` with its reason."""
    uses = {}  # name -> [(path, line)]; line 0: outside src/
    definitions = []
    for top in ("src", "benchmarks", "examples"):
        for path in _python_files(top):
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
            in_src = top == "src"
            for name, line in _names_used(tree):
                uses.setdefault(name, []).append(
                    (path, line) if in_src else (None, 0)
                )
            if in_src:
                rel = os.path.relpath(path, os.path.join(ROOT, "src"))
                module = rel[:-3].replace(os.sep, ".")
                module = module.removesuffix(".__init__")
                definitions.extend(
                    (path, *found) for found in _definitions(module, tree)
                )
    unreached = {
        dotted: f"{os.path.relpath(path, ROOT)}:{first}"
        for path, dotted, name, first, last in definitions
        if not any(
            where != path or not first <= line <= last
            for where, line in uses.get(name, ())
        )
    }
    unexpected = sorted(
        f"{where} {dotted}"
        for dotted, where in unreached.items()
        if dotted not in TEST_ONLY
    )
    assert not unexpected, (
        "reached by no command, bench or example (delete it with its"
        " tests, or list it in TEST_ONLY with a reason): "
        + ", ".join(unexpected)
    )
    stale = sorted(set(TEST_ONLY) - set(unreached))
    assert not stale, f"TEST_ONLY entries now reached or gone: {stale}"


def _literal(node):
    return node.value if isinstance(node, ast.Constant) else None


def _spelled_params(tree):
    """``(key, traffic model or None, line)`` of every literal
    ``traffic_params`` key (a keyword or a dict entry, with the model
    of a literal ``traffic`` beside it) and ``traffic_params.<key>``
    axis name in ``tree``."""
    for node in ast.walk(tree):
        pairs = []
        if isinstance(node, ast.Call):
            pairs = [(kw.arg, kw.value) for kw in node.keywords]
        elif isinstance(node, ast.Dict):
            pairs = [(_literal(k), v) for k, v in zip(node.keys, node.values)]
        values = dict(pairs)
        params = values.get("traffic_params")
        if isinstance(params, ast.Dict):
            model = _literal(values.get("traffic"))
            for key in params.keys:
                yield _literal(key), model, key.lineno
        axis = _literal(node)
        if isinstance(axis, str) and axis.startswith("traffic_params."):
            name = axis[len("traffic_params."):]
            if name:
                yield name, None, node.lineno


SPELLING_FILES = sorted(
    glob.glob(os.path.join(ROOT, "src", "repro", "**", "*.py"), recursive=True)
    + glob.glob(os.path.join(ROOT, "examples", "*.py"))
    + glob.glob(os.path.join(ROOT, "benchmarks", "bench_*.py"))
)


@pytest.mark.parametrize(
    "path", SPELLING_FILES, ids=lambda p: os.path.relpath(p, ROOT)
)
def test_every_spelled_traffic_param_is_declared(path):
    """Each traffic param a bench, example or source file spells must be
    declared by its model (``PARAMS``) or be ``dst``."""
    declared = {
        name: {*cls.PARAMS, "dst"} for name, cls in TRAFFIC_MODELS.items()
    }
    anywhere = set().union(*declared.values())
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for key, model, line in _spelled_params(tree):
        known = declared.get(model, anywhere)
        assert key in known, (
            f"{os.path.relpath(path, ROOT)}:{line}: traffic param"
            f" {key!r} is not declared for"
            f" {model or 'any'} traffic"
        )


class TestMain:
    def test_list_prints_plan_without_running(self, capsys):
        code = run_all.main(["--list", "--only", "ratios"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip() == "bench_ratios.py"
