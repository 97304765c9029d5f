"""Unit tests for the bench harness: runner, paired timer, perf markers.

Running the perf benches themselves stays out of tier-1 (they are
``-m perf``); these tests cover the runner's selection logic
(``benchmarks/run_all.py``), the one timer every speed ratio goes
through (``benchmarks/bench_ratios.paired``), the marker that keeps
each bench out of tier-1, the traffic params the benches (and the
examples and sources, which tier-1 does not execute either) spell,
that every source definition is reached by something besides tests,
and that every defaulted parameter is set by something besides tests.
"""

import ast
import glob
import math
import os
import re
import textwrap

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
    "repro.noc.buffer.FlitBuffer.is_empty": "read-only accessor",
    "repro.noc.link.Link.busy_cycles": "read-only accessor",
    "repro.noc.link.Link.wire_count": "read-only accessor",
    "repro.noc.ni.NetworkInterface.idle": "read-only accessor",
    "repro.stats.runtime.SpeedReport.modes": "read-only accessor",
    "repro.fpga.power.PowerReport.row_for": "read-only accessor",
    "repro.fpga.synthesis.SynthesisReport.row_for": "read-only accessor",
    # Stepping helpers for bare networks.
    "repro.noc.network.Network.drain":
        "steps a bare network (no engine) until it drains",
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
    "repro.receptors.histogram.Histogram.min":
        "item 1 schema: its _min register is checkpoint state",
    "repro.receptors.histogram.Histogram.max":
        "item 1 schema: its _max register is checkpoint state",
}

#: Defaulted ``src/repro`` parameters that only tests set, each with the
#: reason it stays.  :func:`test_every_parameter_is_set_outside_tests`
#: fails on any other such parameter and on a stale entry here.
TEST_ONLY_PARAMS = {
    "repro.analysis.engine.run_lint(overlay)":
        "tests inject fixture modules through it",
    "repro.core.engine.EmulationEngine.run(fast_forward)":
        "parity tests compare against the un-skipped run",
    "repro.core.flow.EmulationFlow.run(max_packets)":
        "item 6 (register reads) decides the flow",
    "repro.core.processor.Processor.initialise_generator(params)":
        "item 6 (register reads) decides the processor",
    **{
        f"repro.noc.topology.{factory}(link_delay)":
            "tests build multi-cycle links through it"
        for factory in ("paper_topology", "spidergon", "star")
    },
    **{
        f"repro.baselines.{name}":
            "item 8 rebuilds the baseline engines behind one spec"
        for name in (
            "rtl.RtlPlatformSim.__init__(depth)",
            "tlm.TlmPlatformSim.__init__(depth)",
            "vcd.VcdTracer.__init__(timescale)",
            "rtl.RtlPlatformSim.run_until_drained(max_cycles)",
            "tlm.TlmPlatformSim.run_until_drained(max_cycles)",
            "speed.build_packet_schedule(interval)",
            "speed.build_packet_schedule(length)",
            "speed.speed_report(include_paper_rows)",
        )
    },
}

#: A string that names a definition by dotted path, as the benchmark's
#: wrapped layers do.
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")

#: Builtins whose second argument is an attribute name.
_ATTR_BUILTINS = ("getattr", "hasattr", "setattr")


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


def _forms(cls):
    """The string nodes of class ``cls``'s ``FORMS`` tuple, which names
    the constructors ``make_traffic_model`` calls."""
    for stmt in cls.body:
        targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
        if any(getattr(t, "id", None) == "FORMS" for t in targets):
            yield from (
                node for node in ast.walk(stmt.value)
                if isinstance(node, ast.Constant)
            )


def _attribute_strings(tree):
    """The ids of the strings in ``tree`` that name an attribute: the
    name argument of ``getattr``/``hasattr``/``setattr`` and each
    ``FORMS`` entry."""
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            named.update(map(id, _forms(node)))
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) in _ATTR_BUILTINS
            and len(node.args) > 1
        ):
            named.add(id(node.args[1]))
    return named


def _names_used(tree):
    """``(name, line, bare)`` of every name the code in ``tree`` refers
    to: names (``bare``), attributes, imports, dotted-path strings and
    attribute-name strings (:func:`_attribute_strings`)."""
    skip = _export_map_nodes(tree)
    attribute_strings = _attribute_strings(tree)
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, True
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, False
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                yield part, node.lineno, False
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED.fullmatch(node.value):
                for part in node.value.split("."):
                    yield part, node.lineno, False
            elif id(node) in attribute_strings:
                yield node.value, node.lineno, False


def _definitions(module, tree):
    """``(dotted name, name, node, is method)`` of every top-level
    function and class and every method, dunders included."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield f"{module}.{node.name}", node.name, node, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, kinds[:2]):
                    yield (
                        f"{module}.{node.name}.{member.name}", member.name,
                        member, True,
                    )


def _module_trees():
    """``(path, module or None, tree)`` of every Python file in ``src/``,
    ``benchmarks/`` and ``examples/``; the module is None outside src."""
    for top in ("src", "benchmarks", "examples"):
        for path in _python_files(top):
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
            module = None
            if top == "src":
                rel = os.path.relpath(path, os.path.join(ROOT, "src"))
                module = rel[:-3].replace(os.sep, ".")
                module = module.removesuffix(".__init__")
            yield path, module, tree


def _unreached(trees):
    """``{dotted name: "path:line"}`` of each ``src`` definition in
    ``trees`` (``(path, module or None, tree)``, as from
    :func:`_module_trees`) that no code outside its own body names."""
    uses = {}  # name -> [(path, line, bare)]; line 0: outside src/
    definitions = []
    for path, module, tree in trees:
        for name, line, bare in _names_used(tree):
            uses.setdefault(name, []).append(
                (path, line, bare) if module else (None, 0, bare)
            )
        if module:
            definitions.extend(
                (path, dotted, name, node, method)
                for dotted, name, node, method in _definitions(module, tree)
                if not (name.startswith("__") and name.endswith("__"))
            )
    return {
        dotted: f"{os.path.relpath(path, ROOT)}:{node.lineno}"
        for path, dotted, name, node, method in definitions
        if not any(
            (where != path or not node.lineno <= line <= node.end_lineno)
            and not (method and bare)
            for where, line, bare in uses.get(name, ())
        )
    }


def test_every_definition_is_reached_outside_tests():
    """Each definition in ``src/repro`` is named by code in ``src/``
    outside its own body, or in ``benchmarks/`` or ``examples/``; a
    definition only tests reach is dead code, or belongs in
    :data:`TEST_ONLY` with its reason.  A method is reached only
    through an attribute, an import or a dotted-path string: a bare
    name is a local or a module-level function, never a method."""
    unreached = _unreached(_module_trees())
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


def _defaulted_params(node, method):
    """``(name, call position or None)`` of each parameter of function
    ``node`` that has a default; the position counts the arguments a
    call passes, so a method's ``self`` takes none."""
    positional = node.args.posonlyargs + node.args.args
    first = len(positional) - len(node.args.defaults)
    skip = 1 if method and not any(
        getattr(d, "id", None) == "staticmethod"
        for d in node.decorator_list
    ) else 0
    for index, arg in enumerate(positional[first:], first):
        yield arg.arg, index - skip
    for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _field_defaults(cls):
    """``(name, call position or None)`` of each defaulted field that a
    dataclass ``cls``'s ``__init__`` takes.  The position is None when
    the class has bases, whose fields come first; a ``field(init=False)``
    is run state, not an option, and takes no argument."""
    if not any(
        "dataclass" in ast.unparse(d) for d in cls.decorator_list
    ):
        return
    position = None if cls.bases else 0
    for stmt in cls.body:
        if not isinstance(stmt, ast.AnnAssign) or (
            "ClassVar" in ast.unparse(stmt.annotation)
        ):
            continue
        value, defaulted = stmt.value, stmt.value is not None
        if isinstance(value, ast.Call) and getattr(
            value.func, "id", None
        ) in ("field", "declared"):
            keywords = {kw.arg: kw.value for kw in value.keywords}
            if getattr(keywords.get("init"), "value", True) is False:
                continue
            defaulted = (
                "default" in keywords or "default_factory" in keywords
                or len(value.args) > 1
            )
        if defaulted:
            yield stmt.target.id, position
        if position is not None:
            position += 1


def _enclosing_classes(tree):
    """``{id(node): enclosing ClassDef}`` of every node in a class."""
    owners = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for inner in ast.walk(node):
                owners[id(inner)] = node
    return owners


def _callee(func, owner):
    """The name a call to ``func`` in class ``owner`` (or None) calls,
    whether it calls a method, and how many of its positional arguments
    fill ``self``.  A constructor is called by its class name, so
    ``cls(...)`` calls ``owner``, ``super().__init__`` its first base and
    ``Base.__init__(self, ...)`` calls ``Base``; ``obj.m(...)`` calls a
    method, a bare ``m(...)`` never does."""
    if isinstance(func, ast.Name):
        if func.id == "cls" and owner is not None:
            return owner.name, False, 0
        return func.id, False, 0
    if func.attr == "__init__":
        target = func.value
        if isinstance(target, ast.Call) and (
            getattr(target.func, "id", None) == "super"
        ):
            base = owner.bases[0] if owner and owner.bases else None
            return (
                getattr(base, "id", None) or getattr(base, "attr", None)
            ), False, 0
        return getattr(target, "id", None) or getattr(
            target, "attr", None
        ), False, 1
    return func.attr, True, 0


def _calls(tree):
    """``(callee name, method, keywords, positional count, starred,
    line)`` of every call in ``tree`` (see :func:`_callee`); ``starred``
    when it passes ``*`` or ``**``.  ``partial(f, ...)`` passes ``f`` as
    a value that may be called with anything: a starred call of ``f``."""
    owners = _enclosing_classes(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not isinstance(
            node.func, (ast.Name, ast.Attribute)
        ):
            continue
        callee, method, skipped = _callee(node.func, owners.get(id(node)))
        if callee == "partial":
            bound = node.args[0] if node.args else None
            if isinstance(bound, (ast.Name, ast.Attribute)):
                callee, method, _ = _callee(bound, owners.get(id(node)))
                yield callee, method, set(), 0, True, node.lineno
            continue
        keywords = {kw.arg for kw in node.keywords} - {None}
        starred = any(isinstance(a, ast.Starred) for a in node.args) or any(
            kw.arg is None for kw in node.keywords
        )
        yield (
            callee, method, keywords, len(node.args) - skipped, starred,
            node.lineno,
        )


def _field_writes(tree):
    """``(field name, None, line)`` of every attribute a statement in
    ``tree`` assigns on an object other than ``self``, and ``("*", class
    name, line)`` for each class ``from_fields`` builds (it passes every
    field a payload holds)."""
    owners = _enclosing_classes(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Attribute) and (
                    getattr(target.value, "id", None) != "self"
                ):
                    yield target.attr, None, node.lineno
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "from_fields"
            and node.args
        ):
            cls = getattr(node.args[0], "id", None)
            if cls == "cls":
                cls = owners[id(node)].name
            yield "*", cls, node.lineno


def _sets(call, callees, method, param, position):
    """Whether ``call`` (a :func:`_calls` row after its path) calls one
    of ``callees`` (a method only through an attribute when ``method``)
    and passes ``param``: by keyword, in its ``position``, or starred."""
    callee, call_method, keywords, n, starred, _line = call
    return callee in callees and (call_method or not method) and (
        param in keywords or starred or position is not None and n > position
    )


def _unset_params(trees):
    """``{"dotted(param)": "path:line"}`` of each defaulted parameter
    of a ``src`` function in ``trees`` (as for :func:`_unreached`) that
    no call outside that function sets, and of each defaulted field of
    a ``src`` dataclass (``"dotted class(field)"``) that nothing sets."""
    calls = []  # (path or None outside src/, *_calls row)
    writes = []  # (path or None outside src/, *_field_writes row)
    params = []  # (path, dotted, node, callees, method, param, position)
    fields = []  # (path, dotted class, class node, field, position)
    for path, module, tree in trees:
        where = path if module else None
        calls.extend((where, *call) for call in _calls(tree))
        writes.extend((where, *write) for write in _field_writes(tree))
        if not module:
            continue
        formed = set()
        for dotted, name, node, method in _definitions(module, tree):
            if isinstance(node, ast.ClassDef):
                # make_traffic_model calls each form with every argument.
                formed.update(
                    f"{dotted}.{form.value}" for form in _forms(node)
                )
                fields.extend(
                    (path, dotted, node, field, position)
                    for field, position in _field_defaults(node)
                )
            elif dotted not in formed:
                # A constructor is called by its class name, bare or not.
                constructor = name == "__init__"
                callees = {dotted.rsplit(".", 2)[-2] if constructor else name}
                params.extend(
                    (path, dotted, node, callees, method and not constructor,
                     param, position)
                    for param, position in _defaulted_params(node, method)
                )

    def inside(node, path, where, line):
        return where == path and node.lineno <= line <= node.end_lineno

    unset = {}
    for path, dotted, node, callees, method, param, position in params:
        if not any(
            _sets(call, callees, method, param, position)
            for where, *call in calls
            if not inside(node, path, where, call[-1])
        ):
            unset[f"{dotted}({param})"] = (
                f"{os.path.relpath(path, ROOT)}:{node.lineno}"
            )
    for path, dotted, node, field, position in fields:
        if not any(
            _sets(call, {node.name}, False, field, position)
            or call[0] == "replace" and field in call[2]
            for _where, *call in calls
        ) and not any(
            name == field and where is None
            or name == "*" and cls == node.name
            for where, name, cls, _line in writes
        ):
            unset[f"{dotted}({field})"] = (
                f"{os.path.relpath(path, ROOT)}:{node.lineno}"
            )
    return unset


def test_every_parameter_is_set_outside_tests():
    """Each defaulted parameter of a function or method in ``src/repro``
    is set by code in ``src/`` outside that function, or in
    ``benchmarks/`` or ``examples/``: a call resolved to the function
    (its name, its class for ``__init__``, ``obj.name(...)`` for a
    method) passes a keyword of its name, an argument in its position
    or ``*``/``**``.  ``partial(f, ...)`` is a starred call of ``f``,
    and a traffic model's ``FORMS`` have every parameter set.  Each
    defaulted field of a dataclass is set the same way, through
    ``dataclasses.replace``, by an attribute store in ``benchmarks/`` or
    ``examples/`` (one in ``src/`` is run state, a ``field(init=False)``),
    or through ``from_fields``.  A parameter only tests set is an option
    nothing uses (make it a constant), or belongs in
    :data:`TEST_ONLY_PARAMS` with its reason."""
    unset = _unset_params(_module_trees())
    unexpected = sorted(
        f"{where} {name}"
        for name, where in unset.items()
        if name not in TEST_ONLY_PARAMS
    )
    assert not unexpected, (
        "set by no command, bench or example (make it a constant or"
        " delete it with its tests, or list it in TEST_ONLY_PARAMS with"
        " a reason): " + ", ".join(unexpected)
    )
    stale = sorted(set(TEST_ONLY_PARAMS) - set(unset))
    assert not stale, f"TEST_ONLY_PARAMS entries now set or gone: {stale}"


def _fixture_trees(sources):
    """:func:`_module_trees` rows for ``{relative path: source}``; a
    path under ``src/`` is a module of that dotted name."""
    for rel, text in sources.items():
        module = None
        if rel.startswith("src/"):
            module = rel[len("src/"):-len(".py")].replace("/", ".")
        tree = ast.parse(textwrap.dedent(text), filename=rel)
        yield os.path.join(ROOT, rel), module, tree


#: ``(case, {path: source}, dotted names the reachability rule flags)``.
REACH_CASES = [
    (
        "function imported elsewhere",
        {"src/pkg/a.py": "def f(): pass",
         "src/pkg/b.py": "from pkg.a import f"},
        set(),
    ),
    (
        "function named only in its own body",
        {"src/pkg/a.py": "def f():\n    return f()"},
        {"pkg.a.f"},
    ),
    (
        "function called by bare name in its module",
        {"src/pkg/a.py": "def f(): pass\n\nf()"},
        set(),
    ),
    (
        "method reached through an attribute",
        {"src/pkg/a.py": "class C:\n    def m(self): pass",
         "src/pkg/b.py": "from pkg.a import C\nC().m()"},
        set(),
    ),
    (
        "method shadowed by a bare local name",
        {"src/pkg/a.py": "class C:\n    def m(self): pass",
         "src/pkg/b.py": "from pkg.a import C\nm = C\nm()"},
        {"pkg.a.C.m"},
    ),
    (
        "method named by a dotted-path string",
        {"src/pkg/a.py": "class C:\n    def m(self): pass",
         "benchmarks/b.py": "LAYERS = ['pkg.a.C.m']"},
        set(),
    ),
    (
        "names listed in __all__ reach nothing",
        {"src/pkg/a.py": "__all__ = ['f']\n\ndef f(): pass"},
        {"pkg.a.f"},
    ),
    (
        "a dict-key string reaches nothing",
        {"src/pkg/a.py": "class C:\n    def m(self): pass",
         "src/pkg/b.py": "from pkg.a import C\nROW = {'m': 1}"},
        {"pkg.a.C.m"},
    ),
    (
        "a getattr target reaches a method",
        {"src/pkg/a.py": "class C:\n    def m(self): pass",
         "src/pkg/b.py": "from pkg.a import C\ngetattr(C(), 'm')()"},
        set(),
    ),
    (
        "a FORMS entry reaches a method",
        {"src/pkg/a.py": (
            "class C:\n"
            "    FORMS = ('m',)\n"
            "\n"
            "    def m(self): pass"
        ), "src/pkg/b.py": "from pkg.a import C"},
        set(),
    ),
]


@pytest.mark.parametrize(
    "sources,flagged", [case[1:] for case in REACH_CASES],
    ids=[case[0] for case in REACH_CASES],
)
def test_reachability_rule_on_fixtures(sources, flagged):
    assert set(_unreached(_fixture_trees(sources))) == flagged


_DEF_F = "def f(a=0, x=1):\n    return a + x"
_CLASS_C = """\
class C:
    def __init__(self, x=1):
        self.x = x

    def m(self, x=1):
        return x

    @staticmethod
    def s(x=1):
        return x
"""
_ALL_OF_C = {"pkg.a.C.__init__(x)", "pkg.a.C.m(x)", "pkg.a.C.s(x)"}
_DATACLASS_D = """\
@dataclass
class D:
    n: int
    x: int = 0
    y: int = field(default=1)
    z: list = field(init=False, default_factory=list)
"""

#: ``(case, {path: source}, parameters the parameter rule flags)``.
PARAM_CASES = [
    (
        "no caller",
        {"src/pkg/a.py": _DEF_F},
        {"pkg.a.f(a)", "pkg.a.f(x)"},
    ),
    (
        "keyword from another module",
        {"src/pkg/a.py": _DEF_F, "src/pkg/b.py": "f(a=1, x=2)"},
        set(),
    ),
    (
        "keyword from a bench",
        {"src/pkg/a.py": _DEF_F, "benchmarks/b.py": "f(x=2)"},
        {"pkg.a.f(a)"},
    ),
    (
        "own recursive call",
        {"src/pkg/a.py": "def f(x=1):\n    return f(x=x)"},
        {"pkg.a.f(x)"},
    ),
    (
        "positional argument in the position",
        {"src/pkg/a.py": _DEF_F, "src/pkg/b.py": "f(1, 2)"},
        set(),
    ),
    (
        "positional arguments short of the position",
        {"src/pkg/a.py": _DEF_F, "src/pkg/b.py": "f(1)"},
        {"pkg.a.f(x)"},
    ),
    (
        "starred call",
        {"src/pkg/a.py": _DEF_F, "src/pkg/b.py": "f(*args)"},
        set(),
    ),
    (
        "double-starred call",
        {"src/pkg/a.py": _DEF_F, "src/pkg/b.py": "f(**kwargs)"},
        set(),
    ),
    (
        "keyword-only parameter passed positionally",
        {"src/pkg/a.py": "def f(*, x=1): pass", "src/pkg/b.py": "f(2)"},
        {"pkg.a.f(x)"},
    ),
    (
        "method call fills no self",
        {"src/pkg/a.py": _CLASS_C, "src/pkg/b.py": "C().m(2)"},
        _ALL_OF_C - {"pkg.a.C.m(x)"},
    ),
    (
        "static method fills from the first argument",
        {"src/pkg/a.py": _CLASS_C, "src/pkg/b.py": "C.s(2)"},
        _ALL_OF_C - {"pkg.a.C.s(x)"},
    ),
    (
        "constructor sets __init__",
        {"src/pkg/a.py": _CLASS_C, "src/pkg/b.py": "C(2)"},
        _ALL_OF_C - {"pkg.a.C.__init__(x)"},
    ),
    (
        "super().__init__ sets the base constructor",
        {"src/pkg/a.py": "class B:\n    def __init__(self, x=1): pass",
         "src/pkg/b.py": (
             "class D(B):\n"
             "    def __init__(self):\n"
             "        super().__init__(2)"
         )},
        set(),
    ),
    (
        "Base.__init__(self) fills only self",
        {"src/pkg/a.py": "class B:\n    def __init__(self, x=1): pass",
         "src/pkg/b.py": "B.__init__(obj)"},
        {"pkg.a.B.__init__(x)"},
    ),
    (
        "Base.__init__(self, value) sets the parameter",
        {"src/pkg/a.py": "class B:\n    def __init__(self, x=1): pass",
         "src/pkg/b.py": "B.__init__(obj, 2)"},
        set(),
    ),
    (
        "keyword on another function's call sets nothing",
        {"src/pkg/a.py": _DEF_F, "src/pkg/b.py": "g(a=1, x=2)"},
        {"pkg.a.f(a)", "pkg.a.f(x)"},
    ),
    (
        "a bare call never sets a method",
        {"src/pkg/a.py": _CLASS_C, "src/pkg/b.py": "m(x=2)"},
        _ALL_OF_C,
    ),
    (
        "cls(...) in a classmethod calls its class",
        {"src/pkg/a.py": _CLASS_C + (
            "\n"
            "    @classmethod\n"
            "    def make(cls):\n"
            "        return cls(x=2)\n"
        )},
        _ALL_OF_C - {"pkg.a.C.__init__(x)"},
    ),
    (
        "a FORMS entry sets its parameters",
        {"src/pkg/a.py": (
            "class T:\n"
            "    FORMS = ('__init__', 'for_load')\n"
            "\n"
            "    def __init__(self, rate, seed=1): pass\n"
            "\n"
            "    @classmethod\n"
            "    def for_load(cls, load, seed=1): pass\n"
            "\n"
            "    def reset(self, seed=None): pass\n"
        )},
        {"pkg.a.T.reset(seed)"},
    ),
    (
        "partial(obj.m, value) sets the method's parameters",
        {"src/pkg/a.py": _CLASS_C,
         "src/pkg/b.py": "from functools import partial\npartial(C().m, 2)"},
        _ALL_OF_C - {"pkg.a.C.m(x)"},
    ),
    (
        "unset dataclass fields; an init=False field is no option",
        {"src/pkg/a.py": _DATACLASS_D},
        {"pkg.a.D(x)", "pkg.a.D(y)"},
    ),
    (
        "dataclass field set by keyword",
        {"src/pkg/a.py": _DATACLASS_D, "src/pkg/b.py": "D(0, y=2)"},
        {"pkg.a.D(x)"},
    ),
    (
        "dataclass field set by position",
        {"src/pkg/a.py": _DATACLASS_D, "src/pkg/b.py": "D(0, 1, 2)"},
        set(),
    ),
    (
        "dataclass field set by replace",
        {"src/pkg/a.py": _DATACLASS_D,
         "src/pkg/b.py": "replace(d, x=3)"},
        {"pkg.a.D(y)"},
    ),
    (
        "dataclass field stored as an attribute",
        {"src/pkg/a.py": _DATACLASS_D,
         "examples/e.py": "d.y = 3\n\n\nclass E:\n    def f(self):\n"
                          "        self.x = 1"},
        {"pkg.a.D(x)"},
    ),
    (
        "dataclass field stored as an attribute inside src sets nothing",
        {"src/pkg/a.py": _DATACLASS_D, "src/pkg/b.py": "d.y = 3"},
        {"pkg.a.D(x)", "pkg.a.D(y)"},
    ),
    (
        "dataclass built through from_fields",
        {"src/pkg/a.py": _DATACLASS_D + (
            "\n"
            "    @classmethod\n"
            "    def from_dict(cls, data):\n"
            "        return from_fields(cls, data, 'D')\n"
        )},
        set(),
    ),
]


@pytest.mark.parametrize(
    "sources,flagged", [case[1:] for case in PARAM_CASES],
    ids=[case[0] for case in PARAM_CASES],
)
def test_parameter_rule_on_fixtures(sources, flagged):
    assert set(_unset_params(_fixture_trees(sources))) == flagged


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
