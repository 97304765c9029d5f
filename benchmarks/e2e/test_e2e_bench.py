"""Tier-1 checks of the end-to-end benchmark itself (no long emulation)."""

from __future__ import annotations

import json
import re
import sys
import types

from . import compare, layers, oracle, workloads
from .cli import E2E_METRICS

NAME = re.compile(r"[A-Za-z0-9_.-]{1,64}")


def test_benchmark_json_names_and_limits():
    bench = compare.load_benchmark()
    e2e, per_layer = bench["end_to_end"], bench["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(per_layer) <= 128
    names = [m["name"] for m in e2e + per_layer + bench["workloads"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in e2e} == E2E_METRICS
    assert {m["name"]: m["unit"] for m in per_layer} == layers.LAYER_METRICS


def test_workload_generation_is_a_pure_function_of_the_seed():
    for name in workloads.WORKLOADS:
        first = workloads.generate(name, 7)
        assert first == workloads.generate(name, 7)
        assert first != workloads.generate(name, 8)
        assert all(step.scenarios >= 1 for step in first)


def _functions():
    """Every function bound in a loaded repro module or class."""
    found = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro"):
            continue
        for key, value in vars(module).items():
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    if isinstance(member, (types.FunctionType, staticmethod)):
                        found[(name, key, attr)] = member
            elif isinstance(value, types.FunctionType):
                found[(name, key)] = value
    return found


def test_traced_pass_wrappers_record_spans_and_restore_originals():
    from repro.experiments import ScenarioSpec
    from repro.experiments.runner import run_scenario
    from repro.noc.network import Network

    import repro.experiments.runner as runner

    with layers.installed(layers.Tracer()):
        pass  # imports every target module before the snapshot
    before = _functions()
    step = vars(Network)["step"]
    tracer = layers.Tracer()
    spec = ScenarioSpec(topology="mesh:2:2", packets=5, seed=3)
    with layers.installed(tracer):
        assert vars(Network)["step"] is not step
        assert runner.run_scenario is not run_scenario
        runner.run_scenario(spec)
    after = _functions()
    assert all(after[key] is fn for key, fn in before.items())
    assert runner.run_scenario is run_scenario

    metrics = layers.layer_metrics(tracer.spans)
    assert metrics["noc.steps"] > 0 and metrics["build.total_s"] > 0
    scenario = [s for s in tracer.spans if s["name"] == "runner.scenario"]
    assert len(scenario) == 1
    engine = [s for s in tracer.spans if s["name"] == "engine.run"]
    assert engine[0]["parent"] == scenario[0]["id"]
    assert engine[0]["scenario"] == spec.key
    assert 0 <= engine[0]["self"] <= engine[0]["end"] - engine[0]["start"]


def _write_runs(root, factor):
    for seed in range(1, 11):
        noise = 1 + 0.002 * ((seed * 7) % 5 - 2)
        record = {
            "workload": "paper_stream",
            "seed": seed,
            "trace": False,
            "metrics": {"run_s": {"value": 2.0 * factor * noise, "unit": "s"}},
        }
        path = root / "paper_stream" / f"seed{seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record))
    return str(root)


def test_compare_flags_a_slowdown_past_the_bound_passes_3_percent(tmp_path):
    bench = compare.load_benchmark()
    (bound,) = [
        m["bound"] for m in bench["end_to_end"] if m["name"] == "run_s"
    ]
    parent = _write_runs(tmp_path / "parent", 1.0)

    def ruling(factor):
        change = _write_runs(tmp_path / f"x{factor}", factor)
        (row,) = compare.compare(parent, change, bench)
        return row["ruling"]

    assert ruling(1 + 1.5 * bound) == "regression"
    assert ruling(1.03) == "ok"
    assert ruling(1 - 1.5 * bound) == "gain"


def test_invariant_checker_rejects_an_altered_row(tmp_path):
    (step,) = workloads.generate("sweep_short", 1)
    rows = [
        {"cached": False, "completed": True, "cycles": 100,
         "packets_sent": 20, "packets_received": 19,
         "fault_dropped_packets": 1}
        for _ in range(step.scenarios)
    ]
    path = workloads.file_of(str(tmp_path), step, "rows.json")

    def inspect():
        with open(path, "w") as fh:
            json.dump(rows, fh)
        return oracle.inspect_step(str(tmp_path), step, 0)

    clean = inspect()
    assert clean.failed == 0 and clean.attempted == step.scenarios
    rows[3]["packets_received"] = 18
    altered = inspect()
    assert altered.failed == 1 and altered.digest != clean.digest
    rows[3].update(packets_received=19, completed=False)
    assert inspect().failed == 1
