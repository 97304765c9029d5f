"""Determinism rules: the emulation must be a pure function of the spec.

Bit-identical reproduction — same spec, same metrics, same hashes, on
any machine, in any process — is the platform's core contract (the
parity suites enforce it dynamically; these rules enforce its
preconditions statically):

``wall-clock``
    No reading the host clock.  ``time.time`` & friends smuggle the
    machine's speed into results; the only sanctioned uses are
    telemetry/benchmark timing, each carrying an allow-pragma saying
    why its value never reaches a deterministic record.
``unseeded-rng``
    No ambient randomness.  Every stochastic choice flows through the
    seeded LFSR streams in ``repro/traffic/rng.py``.
``unsorted-set-iter``
    No iterating sets into anything ordered.  Set order varies with
    insertion history (and, for strings, the per-process hash seed),
    so a set feeding a loop, ``list()``, or ``join`` is ordering
    roulette — wrap it in ``sorted()``.
``id-ordering``
    No ordering by ``id()``.  Addresses differ across processes, so
    ``sort(key=id)`` is per-run order.  (Using ``id()`` as a dict
    *key* for identity lookup is fine and common in capture code.)
``canonical-json``
    No hand-rolled ``json.dump(s)`` and no ``json.JSONEncoder``
    objects.  Everything serialized goes through
    :func:`repro.util.canonical_json` so sorted keys and compact
    separators cannot drift per call site; human-facing exports
    (Perfetto traces) carry pragmas.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.project import Project
from repro.analysis.rules import (
    Rule,
    dotted_name,
    import_map,
    iter_calls,
    resolve_call,
)

__all__ = [
    "CanonicalJsonRule",
    "IdOrderingRule",
    "UnseededRngRule",
    "UnsortedSetIterRule",
    "WallClockRule",
]

_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


class WallClockRule(Rule):
    id = "wall-clock"
    description = (
        "host-clock reads (time.time/perf_counter/...) are forbidden"
        " in deterministic code; pragma the telemetry exceptions"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project:
            imports = import_map(module.tree)
            for call in iter_calls(module.tree):
                full = resolve_call(call, imports)
                if full in _WALL_CLOCK:
                    yield self.finding(
                        module,
                        call.lineno,
                        f"{full}() reads the host clock; emulation"
                        f" results must be a pure function of the"
                        f" spec",
                    )


#: Ambient-randomness sources.  Exact names or dotted prefixes.
_RNG_EXACT = {"os.urandom", "uuid.uuid4", "uuid.uuid1"}
_RNG_PREFIXES = ("random.", "secrets.", "numpy.random.")

#: The one module allowed to wrap randomness: the seeded LFSR streams.
_RNG_HOME = "repro/traffic/rng.py"


class UnseededRngRule(Rule):
    id = "unseeded-rng"
    description = (
        "ambient randomness (random/os.urandom/uuid) is forbidden"
        " outside the seeded LFSR module repro/traffic/rng.py"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project:
            if module.matches(_RNG_HOME):
                continue
            imports = import_map(module.tree)
            for call in iter_calls(module.tree):
                full = resolve_call(call, imports)
                if full is None:
                    continue
                if full in _RNG_EXACT or full.startswith(_RNG_PREFIXES):
                    yield self.finding(
                        module,
                        call.lineno,
                        f"{full}() is ambient randomness; derive a"
                        f" seeded stream via repro.traffic.rng"
                        f" instead",
                    )


#: Call/attribute forms that produce a set.
_SET_BUILTINS = {"set", "frozenset"}
_SET_METHODS = {
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
}
#: Builtins that materialize iteration order from their argument.
_ORDER_SINKS = {"list", "tuple", "enumerate", "iter"}


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in _SET_BUILTINS:
            return True
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _SET_METHODS
        ):
            return True
    return False


class UnsortedSetIterRule(Rule):
    id = "unsorted-set-iter"
    description = (
        "iterating a set expression into ordered output is"
        " nondeterministic; wrap it in sorted()"
    )

    def _flag(self, node: ast.AST) -> bool:
        return _is_set_expr(node)

    def check(self, project: Project) -> Iterator[Finding]:
        message = (
            "iteration order of a set is not deterministic across"
            " processes; wrap it in sorted(...)"
        )
        for module in project:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.For) and self._flag(node.iter):
                    yield self.finding(module, node.iter.lineno, message)
                elif isinstance(
                    node,
                    (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                     ast.DictComp),
                ):
                    for comp in node.generators:
                        if self._flag(comp.iter):
                            yield self.finding(
                                module, comp.iter.lineno, message
                            )
                elif isinstance(node, ast.Call):
                    func = node.func
                    sink = (
                        isinstance(func, ast.Name)
                        and func.id in _ORDER_SINKS
                    ) or (
                        isinstance(func, ast.Attribute)
                        and func.attr == "join"
                    )
                    if sink and node.args and self._flag(node.args[0]):
                        yield self.finding(
                            module, node.lineno, message
                        )


_ORDERING_FUNCS = {"sorted", "min", "max"}


def _mentions_id(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id == "id":
            return True
    return False


class IdOrderingRule(Rule):
    id = "id-ordering"
    description = (
        "ordering by id() is per-process memory layout; order by a"
        " stable field instead"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project:
            for call in iter_calls(module.tree):
                func = call.func
                is_ordering = (
                    isinstance(func, ast.Name)
                    and func.id in _ORDERING_FUNCS
                ) or (
                    isinstance(func, ast.Attribute)
                    and func.attr == "sort"
                )
                for keyword in call.keywords:
                    if keyword.arg == "key" and _mentions_id(
                        keyword.value
                    ):
                        yield self.finding(
                            module,
                            call.lineno,
                            "key function built on id() orders by"
                            " memory address, which differs per"
                            " process",
                        )
                        break
                else:
                    if is_ordering and any(
                        _mentions_id(arg) for arg in call.args
                    ):
                        yield self.finding(
                            module,
                            call.lineno,
                            "ordering over id() values is per-process"
                            " memory layout",
                        )


#: The one module allowed to call json.dumps: the shared encoder.
_ENCODER_HOME = "repro/util.py"

#: Calls that serialize JSON by hand: the two module-level encoders,
#: and constructing an encoder object (whose ``encode`` is the same
#: thing under another name).
_HAND_ROLLED = (
    "json.dump", "json.dumps", "json.JSONEncoder", "json.encoder.JSONEncoder"
)


class CanonicalJsonRule(Rule):
    id = "canonical-json"
    description = (
        "json.dump/json.dumps/json.JSONEncoder outside repro/util.py;"
        " use repro.util.canonical_json so key order and separators"
        " cannot drift"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project:
            if module.matches(_ENCODER_HOME):
                continue
            imports = import_map(module.tree)
            for call in iter_calls(module.tree):
                full = resolve_call(call, imports)
                if full in _HAND_ROLLED:
                    yield self.finding(
                        module,
                        call.lineno,
                        f"{full}() hand-rolls serialization; use"
                        f" repro.util.canonical_json (pragma only"
                        f" human-facing exports)",
                    )
