"""Traced pass: time each layer's public functions from outside ``src/``.

Run as a script, ``python3 layers.py SPANS_OUT ARGV...`` installs the
wrappers, calls ``repro.cli.main(ARGV)`` in-process and writes the
recorded spans to ``SPANS_OUT`` (JSON lines) when the command exits.
Its exit code is the command's.

The module imports nothing from its own package, so it runs as a
plain script in the child process.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

_clock = time.perf_counter


class Tracer:
    """Records spans around the wrapped calls.

    A *span* (id, name, start, end, parent, scenario) is kept for each
    call of a function that runs a few times per scenario.  A function
    called once per cycle or per flit is *counted* instead: its calls
    and time are summed into the enclosing span's ``agg`` as ``name:
    [calls, seconds, self seconds]``.  Each open frame sums the time of
    its direct children, so every span and counted entry carries its
    self time.  ``counters`` hold work counts (flit hops, bytes
    written, ...) added by the wrappers' tallies; a counted call's
    counters fold into its span like its time.  Counted calls made
    outside every span are dropped.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.scenario: Optional[str] = None
        self._stack: List[Dict[str, Any]] = [self._frame("", None)]
        self._ids = itertools.count()

    @staticmethod
    def _frame(name: str, span_id: Optional[int]) -> Dict[str, Any]:
        return {
            "name": name,
            "id": span_id,
            "children": 0.0,
            "agg": {},
            "counters": {},
        }

    def _push(self, name: str, span: bool) -> Dict[str, Any]:
        frame = self._frame(name, next(self._ids) if span else None)
        self._stack.append(frame)
        frame["start"] = _clock()
        return frame

    def _pop(self, frame: Dict[str, Any]) -> None:
        end = _clock()
        stack = self._stack
        stack.pop()
        duration = end - frame["start"]
        parent = stack[-1]
        parent["children"] += duration
        if frame["id"] is None:
            own = duration - frame["children"]
            _fold(parent["agg"], frame["name"], 1, duration, own)
            for name, entry in frame["agg"].items():
                _fold(parent["agg"], name, *entry)
            _add(parent["counters"], frame["counters"])
            return
        ancestors = [f["id"] for f in stack if f["id"] is not None]
        self.spans.append({
            "id": frame["id"],
            "name": frame["name"],
            "start": frame["start"],
            "end": end,
            "parent": ancestors[-1] if ancestors else None,
            "scenario": self.scenario,
            "self": duration - frame["children"],
            "agg": frame["agg"],
            "counters": frame["counters"],
        })

    def wrap(
        self,
        name: str,
        fn: Callable,
        counted: bool = False,
        tally: Optional[Callable] = None,
        scenario: bool = False,
    ) -> Callable:
        """``fn`` wrapped in a span (or a counted call) named ``name``.

        ``tally(args)`` runs before the call and returns a function of
        the result giving the counters to add; ``scenario`` tags every
        span under the call with the spec key of its first argument.
        """
        push, pop = self._push, self._pop
        span = not counted

        if tally is None and not scenario:
            # The per-cycle path: keep it to a push and a pop.
            @functools.wraps(fn)
            def plain(*args, **kwargs):
                frame = push(name, span)
                try:
                    return fn(*args, **kwargs)
                finally:
                    pop(frame)

            return plain

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            finish = tally(args) if tally is not None else None
            outer = self.scenario
            if scenario:
                self.scenario = args[0].key
            frame = push(name, span)
            try:
                result = fn(*args, **kwargs)
                if finish is not None:
                    _add(frame["counters"], finish(result))
                return result
            finally:
                pop(frame)
                self.scenario = outer

        return wrapper

    def call(self, name: str, fn: Callable, *args: Any) -> Any:
        return self.wrap(name, fn)(*args)


def _fold(
    agg: Dict[str, List[float]],
    name: str,
    calls: int,
    total: float,
    own: float,
) -> None:
    entry = agg.get(name)
    if entry is None:
        agg[name] = [calls, total, own]
    else:
        entry[0] += calls
        entry[1] += total
        entry[2] += own


def _add(into: Dict[str, float], counts: Dict[str, float]) -> None:
    for key, value in counts.items():
        into[key] = into.get(key, 0) + value


# ----------------------------------------------------------------------
# What is wrapped
# ----------------------------------------------------------------------
def _engine_counters(engine) -> Dict[str, int]:
    """Settle-on-read work and statistics counters of a platform."""
    platform = engine.platform
    network = platform.network
    telemetry = engine.telemetry
    return {
        "cycles": platform.cycle,
        "hops": sum(link.flits_carried for link in network.links),
        "dropped_flits": sum(
            link.flits_dropped for link in network.links
        ),
        "packets_sent": platform.packets_sent,
        "windows": len(telemetry.records) if telemetry is not None else 0,
        "blocked_flit_cycles": network.total_blocked_flit_cycles,
        "credit_stall_cycles": sum(
            sw.credit_stall_cycles for sw in network.switches
        ),
        "ni_stall_cycles": sum(ni.stall_cycles for ni in network.nis),
        "backpressure_cycles": sum(
            gen.backpressure_cycles for gen in platform.generators
        ),
    }


def _engine_tally(args):
    engine = args[0]
    before = _engine_counters(engine)
    return lambda _: {
        k: v - before[k] for k, v in _engine_counters(engine).items()
    }


def _ff_tally(args):
    return lambda skipped: {
        "ff_jumps": int(skipped > 0),
        "cycles_skipped": skipped,
    }


def _cache_tally(args):
    return lambda path: {"cache_bytes": os.path.getsize(path)}


def _checkpoint_tally(args):
    path = args[1]
    return lambda _: {"checkpoint_bytes": os.path.getsize(path)}


#: Functions called a few times per scenario, each call a span:
#: (layer, module, attribute[, tally]).
SPANS = (
    ("spec.parse", "repro.experiments.spec", "Sweep.from_file"),
    ("runner.scenario", "repro.experiments.runner", "run_scenario"),
    ("spec.elaborate", "repro.experiments.spec",
     "ScenarioSpec.to_platform_config"),
    ("build.total", "repro.core.platform", "build_platform"),
    ("build.topology", "repro.core.config",
     "PlatformConfig.resolve_topology"),
    ("build.routing", "repro.core.config", "PlatformConfig.resolve_routing"),
    ("build.deadlock_vet", "repro.noc.deadlock", "assert_deadlock_free"),
    ("build.network", "repro.noc.network", "Network.__init__"),
    ("engine.run", "repro.core.engine", "EmulationEngine.run",
     _engine_tally),
    ("metrics.extract", "repro.stats.summary", "scenario_metrics"),
    ("cache.put", "repro.experiments.cache", "ResultCache.put",
     _cache_tally),
    ("journal.write", "repro.experiments.resilience", "SweepJournal.write"),
    ("checkpoint.snapshot", "repro.checkpoint.capture", "snapshot"),
    ("checkpoint.save", "repro.checkpoint.record", "Checkpoint.save",
     _checkpoint_tally),
    ("trace.export", "repro.telemetry.trace", "FlitTracer.write_perfetto"),
)

#: Functions called once per cycle, per flit or per switch, counted
#: into the enclosing span.
COUNTED = (
    ("build.route_compile", "repro.noc.routing",
     "compile_dense_route_table"),
    ("noc.step", "repro.noc.network", "Network.step"),
    ("traffic.poll", "repro.core.platform",
     "EmulationPlatform.poll_generators"),
    ("engine.ff", "repro.core.platform",
     "EmulationPlatform.idle_fast_forward", _ff_tally),
    ("faults.tick", "repro.faults.injector", "FaultInjector.tick"),
    ("telemetry.advance", "repro.telemetry.windows",
     "WindowedMetrics.advance"),
) + tuple(
    ("trace.hook", "repro.telemetry.trace", f"FlitTracer.{hook}")
    for hook in ("inject", "hop", "eject", "packet_done", "abort", "fault")
)

#: The span whose calls tag everything under them with a spec key.
SCENARIO_LAYER = "runner.scenario"


def _repro_modules() -> List[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None
        and (name == "repro" or name.startswith("repro."))
    ]


def _rebind(old: Any, new: Any) -> None:
    """Point every name bound to ``old`` in a ``repro`` module at ``new``
    (``from x import f`` copies the binding into the importer)."""
    for module in _repro_modules():
        for key, value in list(vars(module).items()):
            if value is old:
                setattr(module, key, new)


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Wrap every target for the duration of the block, then restore
    the originals."""
    importlib.import_module("repro.cli")
    undo = []
    try:
        targets = [(False, *t) for t in SPANS] + [(True, *t) for t in COUNTED]
        for counted, layer, module_name, attribute, *tally in targets:
            owner = importlib.import_module(module_name)
            *path, attr = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = tracer.wrap(
                layer, fn, counted, *tally, scenario=layer == SCENARIO_LAYER
            )
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            if path:
                setattr(owner, attr, wrapped)
            else:
                _rebind(raw, wrapped)
            undo.append((owner, attr, raw, wrapped, bool(path)))
        yield
    finally:
        for owner, attr, raw, wrapped, is_method in reversed(undo):
            if is_method:
                setattr(owner, attr, raw)
            else:
                _rebind(wrapped, raw)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
#: Every per-layer metric with its unit, in report order.
LAYER_METRICS = {
    "noc.step_s": "s", "noc.steps": "count", "noc.ns_per_step": "ns",
    "noc.ns_per_hop": "ns", "noc.hops_per_step": "hops/step",
    "traffic.poll_s": "s", "traffic.polls": "count",
    "traffic.packets_per_poll": "packets/poll",
    "engine.run_s": "s", "engine.loop_self_s": "s", "engine.ff_s": "s",
    "engine.ff_jumps": "count", "engine.cycles_skipped": "cycles",
    "engine.skip_frac": "ratio",
    "build.total_s": "s", "build.topology_s": "s", "build.routing_s": "s",
    "build.deadlock_vet_s": "s", "build.network_s": "s",
    "build.route_compile_s": "s",
    "spec.parse_s": "s", "spec.elaborate_s": "s",
    "faults.tick_s": "s", "faults.ticks": "count",
    "faults.dropped_flits": "flits",
    "telemetry.advance_s": "s", "telemetry.windows": "count",
    "metrics.extract_s": "s", "cache.put_s": "s", "cache.bytes": "bytes",
    "journal.write_s": "s",
    "runner.scenario_p50_s": "s", "runner.scenario_p90_s": "s",
    "checkpoint.snapshot_s": "s", "checkpoint.save_s": "s",
    "checkpoint.count": "count", "checkpoint.bytes": "bytes",
    "trace.hook_s": "s", "trace.events": "count", "trace.export_s": "s",
    "noc.blocked_flit_cycles": "cycles", "noc.credit_stall_cycles": "cycles",
    "ni.stall_cycles": "cycles", "traffic.backpressure_cycles": "cycles",
    "trace_overhead": "ratio",
}


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _ratio(a: float, b: float, scale: float = 1.0) -> float:
    return a / b * scale if b else 0.0


def layer_metrics(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """The per-layer metrics of one traced repetition (every metric of
    :data:`LAYER_METRICS` except ``trace_overhead``; 0 where a layer
    did not run)."""
    total: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    counters: Dict[str, float] = defaultdict(float)
    scenarios = []
    for span in spans:
        duration = span["end"] - span["start"]
        total[span["name"]] += duration
        calls[span["name"]] += 1
        for name, (n, seconds, _) in span["agg"].items():
            total[name] += seconds
            calls[name] += n
        _add(counters, span["counters"])
        if span["name"] == "runner.scenario":
            scenarios.append(duration)
    steps, hops = calls["noc.step"], counters["hops"]
    skipped = counters["cycles_skipped"]
    return {
        "noc.step_s": total["noc.step"],
        "noc.steps": steps,
        "noc.ns_per_step": _ratio(total["noc.step"], steps, 1e9),
        "noc.ns_per_hop": _ratio(total["noc.step"], hops, 1e9),
        "noc.hops_per_step": _ratio(hops, steps),
        "traffic.poll_s": total["traffic.poll"],
        "traffic.polls": calls["traffic.poll"],
        "traffic.packets_per_poll": _ratio(
            counters["packets_sent"], calls["traffic.poll"]
        ),
        "engine.run_s": total["engine.run"],
        "engine.loop_self_s": sum(
            s["self"] for s in spans if s["name"] == "engine.run"
        ),
        "engine.ff_s": total["engine.ff"],
        "engine.ff_jumps": counters["ff_jumps"],
        "engine.cycles_skipped": skipped,
        "engine.skip_frac": _ratio(skipped, counters["cycles"]),
        "build.total_s": total["build.total"],
        "build.topology_s": total["build.topology"],
        "build.routing_s": total["build.routing"],
        "build.deadlock_vet_s": total["build.deadlock_vet"],
        "build.network_s": total["build.network"],
        "build.route_compile_s": total["build.route_compile"],
        "spec.parse_s": total["spec.parse"],
        "spec.elaborate_s": total["spec.elaborate"],
        "faults.tick_s": total["faults.tick"],
        "faults.ticks": calls["faults.tick"],
        "faults.dropped_flits": counters["dropped_flits"],
        "telemetry.advance_s": total["telemetry.advance"],
        "telemetry.windows": counters["windows"],
        "metrics.extract_s": total["metrics.extract"],
        "cache.put_s": total["cache.put"],
        "cache.bytes": counters["cache_bytes"],
        "journal.write_s": total["journal.write"],
        "runner.scenario_p50_s": _percentile(scenarios, 0.5),
        "runner.scenario_p90_s": _percentile(scenarios, 0.9),
        "checkpoint.snapshot_s": total["checkpoint.snapshot"],
        "checkpoint.save_s": total["checkpoint.save"],
        "checkpoint.count": calls["checkpoint.save"],
        "checkpoint.bytes": counters["checkpoint_bytes"],
        "trace.hook_s": total["trace.hook"],
        "trace.events": calls["trace.hook"],
        "trace.export_s": total["trace.export"],
        "noc.blocked_flit_cycles": counters["blocked_flit_cycles"],
        "noc.credit_stall_cycles": counters["credit_stall_cycles"],
        "ni.stall_cycles": counters["ni_stall_cycles"],
        "traffic.backpressure_cycles": counters["backpressure_cycles"],
    }


def main(argv: List[str]) -> int:
    spans_out, *command = argv
    import repro.cli

    tracer = Tracer()
    try:
        with installed(tracer):
            return tracer.call("cli.main", repro.cli.main, command)
    finally:
        with open(spans_out, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
