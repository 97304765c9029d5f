"""The declared spec schema: one declaration, every check derived.

Each ``ScenarioSpec`` field carries its :class:`~repro.traffic.base.
Param` and each traffic model declares ``PARAMS``; the spec check,
the TG param defaults and the model constructors all read them.  These
tests pin that malformed specs fail when they are made (not when they
are built), that every spec the declaration admits builds, and that
moving the checks changed no spec key.
"""

import json
import math
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from benchmarks.e2e import workloads
from repro.cli import main
from repro.core.config import TRAFFIC_MODELS
from repro.core.engine import build_engine
from repro.core.errors import ConfigError
from repro.experiments import ScenarioSpec, Sweep
from repro.traffic import trace

#: Malformed specs that used to pass the spec check and fail (or run
#: silently) later.  Each must now raise ConfigError when it is made.
PROBES = {
    "poisson-rate-zero": dict(traffic="poisson", traffic_params={"rate": 0.0}),
    "poisson-rate-negative": dict(
        traffic="poisson", traffic_params={"rate": -0.5}
    ),
    "uniform-interval-zero": dict(traffic_params={"interval": 0}),
    "length-empty-range": dict(traffic_params={"length": [5, 2]}),
    "length-zero": dict(traffic_params={"length": 0}),
    "onoff-gap-negative": dict(traffic="onoff", traffic_params={"gap": -3}),
    "trace-flits-zero": dict(
        traffic="trace", traffic_params={"flits_per_packet": 0}
    ),
    "burst-p-on-negative": dict(traffic="burst", traffic_params={"p_on": -1.0}),
    "burst-p-on-above-one": dict(traffic="burst", traffic_params={"p_on": 2.0}),
    "dst-outside-fabric": dict(traffic_params={"dst": [99]}),
    "typo-lenght": dict(traffic_params={"lenght": 4}),
    "fault-on-missing-link": dict(
        topology="mesh:4:4",
        faults={"events": [
            {"kind": "link_down", "cycle": 300, "a": 0, "b": 15},
        ]},
    ),
}


@pytest.mark.parametrize("name", sorted(PROBES))
def test_malformed_spec_fails_when_made(name):
    with pytest.raises(ConfigError):
        ScenarioSpec(**PROBES[name])


def test_unknown_key_names_the_nearest_declared_one():
    with pytest.raises(ConfigError, match=r"did you mean \['length'\]"):
        ScenarioSpec(**PROBES["typo-lenght"])


def test_burst_probability_needs_its_partner():
    with pytest.raises(ConfigError, match="'p_off'"):
        ScenarioSpec(traffic="burst", traffic_params={"p_on": 0.5})


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(traffic="burst", load=1.0), "p_on > 1"),
        (dict(load=5e-324), "uniform traffic"),  # an infinite interval
    ],
    ids=["burst-on-for-ever", "uniform-interval-overflows"],
)
def test_values_that_only_fail_together_fail_when_made(kwargs, match):
    with pytest.raises(ConfigError, match=match):
        ScenarioSpec(**kwargs)


def test_trace_spec_is_checked_without_generating_its_trace(monkeypatch):
    """A trace spec is made again on every cache hit and in every
    worker; only the platform build generates its trace."""

    def refuse(*args, **kwargs):
        raise AssertionError("a trace was generated at spec time")

    monkeypatch.setattr(trace, "synthetic_burst_trace", refuse)
    ScenarioSpec(traffic="trace", packets=20)
    with pytest.raises(ConfigError, match="flits_per_packet"):
        ScenarioSpec(traffic="trace", traffic_params={"flits_per_packet": 0})


def test_batch_rejects_missing_fault_link_before_running(
    tmp_path, capsys
):
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({
        "base": {"topology": "mesh:4:4", "packets": 5},
        "grid": {
            "seed": [1, 2],
            "faults": [None, {"events": [
                {"kind": "link_down", "cycle": 10, "a": 0, "b": 15},
            ]}],
        },
    }))
    cache = tmp_path / "cache"
    code = main(["batch", str(sweep), "--cache-dir", str(cache)])
    captured = capsys.readouterr()
    assert code == 2
    assert "0->15" in captured.err
    assert "ran" not in captured.err
    assert not cache.exists()


# ----------------------------------------------------------------------
# Specs drawn from the declaration
# ----------------------------------------------------------------------
#: Fabrics the draws run on.  Routing stays ``auto``: deadlock freedom
#: is a property of built tables, which the platform build vets.
TOPOLOGIES = ("paper", "mesh:2:2", "mesh:3:2", "ring:4", "star:3")

#: Values above this stand for "unbounded" ranges, keeping draws cheap.
SMALL = 6


def valid_values(param):
    """A strategy of values ``param`` admits."""
    if param.choices:
        return st.sampled_from(param.choices)
    lo = param.lo + (1 if param.lo_open and param.kind is int else 0)
    hi = min(param.hi, param.lo + SMALL)
    if param.kind is int:
        values = st.integers(int(lo), int(hi))
        if param.span:
            pairs = st.tuples(values, values).map(lambda p: sorted(p))
            values = st.one_of(values, pairs)
    else:
        values = st.floats(lo, hi, exclude_min=param.lo_open)
    return st.one_of(st.none(), values) if param.optional else values


def invalid_values(param):
    """Values ``param`` must reject: wrong types and each bound's
    nearest outside value."""
    bad = ["x", True]
    if param.kind in (int, float) and not param.choices:
        bad.append(param.lo if param.lo_open else param.lo - 1)
        if param.hi < math.inf:
            bad.append(param.hi + 1)
        if param.kind is int:
            bad.append(param.lo + 1.5)
    return bad


def numeric_params(traffic):
    return sorted(
        name for name, param in TRAFFIC_MODELS[traffic].PARAMS.items()
        if param.kind in (int, float)
    )


@st.composite
def spec_kwargs(draw):
    kwargs = {
        f.name: draw(valid_values(f.metadata["param"]))
        for f in fields(ScenarioSpec)
        if "param" in f.metadata and f.name != "topology"
    }
    kwargs["topology"] = draw(st.sampled_from(TOPOLOGIES))
    params = TRAFFIC_MODELS[kwargs["traffic"]].PARAMS
    names = draw(st.sets(st.sampled_from(numeric_params(kwargs["traffic"]))))
    kwargs["traffic_params"] = {
        name: draw(valid_values(params[name])) for name in sorted(names)
    }
    return kwargs


def made(kwargs):
    """The spec of ``kwargs``, or None when the spec check refuses it."""
    try:
        return ScenarioSpec(**kwargs)
    except ConfigError:
        return None


SCHEMA_SETTINGS = settings(
    max_examples=60,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


@SCHEMA_SETTINGS
@given(spec_kwargs())
def test_every_admitted_draw_builds(kwargs):
    spec = made(kwargs)
    assume(spec is not None)
    platform, _engine = build_engine(spec)
    assert len(platform.generators) >= 2


@SCHEMA_SETTINGS
@given(spec_kwargs(), st.data())
def test_single_field_out_of_range_fails_when_made(kwargs, data):
    assume(made(kwargs) is not None)
    declared = [f for f in fields(ScenarioSpec) if "param" in f.metadata]
    targets = [("field", f.name) for f in declared]
    targets += [("param", n) for n in numeric_params(kwargs["traffic"])]
    kind, name = data.draw(st.sampled_from(targets))
    mutated = dict(kwargs, traffic_params=dict(kwargs["traffic_params"]))
    if kind == "field":
        param = next(f for f in declared if f.name == name).metadata["param"]
        mutated[name] = data.draw(st.sampled_from(invalid_values(param)))
    else:
        param = TRAFFIC_MODELS[kwargs["traffic"]].PARAMS[name]
        mutated["traffic_params"][name] = data.draw(
            st.sampled_from(invalid_values(param))
        )
    with pytest.raises(ConfigError):
        ScenarioSpec(**mutated)


# ----------------------------------------------------------------------
# Hash stability: the keys recorded before the schema was declared
# ----------------------------------------------------------------------
KEYS = json.loads((Path(__file__).parent / "data" / "spec_keys.json").read_text())


@pytest.mark.parametrize("run", sorted(KEYS["workloads"]))
def test_workload_spec_keys_are_unchanged(run):
    name, seed = run.split("/")
    keys = [
        spec.key
        for step in workloads.generate(name, int(seed))
        for spec in Sweep.from_dict(step.doc)
    ]
    assert keys == KEYS["workloads"][run]


def test_golden_spec_keys_are_unchanged():
    assert [
        ScenarioSpec.from_dict(payload).key for payload, _ in KEYS["golden"]
    ] == [key for _, key in KEYS["golden"]]
