"""The ``__rebuilt__`` declarations that drive checkpoint capture.

Each walked class declares only the fields a checkpoint skips; every
other field is state (see :mod:`repro.checkpoint.walker`).  These
tests pin what that design promises: no declaration names a field
that does not exist, a new field is carried through ``snapshot()`` ->
``restore()`` with no further edit, and a field holding something
that is not plain data fails the snapshot naming it.
"""

import pytest

from repro.checkpoint import CheckpointError, restore, snapshot
from repro.core.engine import EmulationEngine
from repro.core.platform import EmulationPlatform, build_platform
from repro.experiments.spec import ScenarioSpec
from repro.faults import FaultEvent, FaultSchedule, link_down
from repro.noc.link import Link
from repro.receptors.histogram import Histogram
from repro.telemetry import WindowedMetrics

FAULTS = FaultSchedule(
    events=(
        link_down(200, 1, 4),
        FaultEvent("flaky", 250, a=2, b=5, until=900, drop_p=0.3, seed=4),
    )
)

#: Between them: every traffic model, both receptor kinds, all three
#: arbiters, faults and telemetry.
SPECS = [
    ScenarioSpec(traffic="uniform", load=0.8, faults=FAULTS,
                 telemetry_windows=150, seed=1),
    ScenarioSpec(traffic="poisson", load=0.8, receptors="stochastic",
                 arbitration="matrix", seed=2),
    ScenarioSpec(traffic="burst", load=0.8,
                 arbitration="fixed_priority", seed=3),
    ScenarioSpec(traffic="onoff", load=0.8, receptors="stochastic",
                 seed=4),
    ScenarioSpec(traffic="trace", load=0.8, seed=5),
]

WALKED = {
    "Link", "NetworkInterface", "ReassemblyBuffer", "Switch",
    "_OutputPort", "RoundRobinArbiter", "FixedPriorityArbiter",
    "MatrixArbiter", "TrafficGenerator", "UniformTraffic",
    "PoissonTraffic", "BurstTraffic", "OnOffTraffic", "TraceTraffic",
    "Histogram", "LatencyAnalyzer", "CongestionCounter",
    "TraceDrivenReceptor", "StochasticReceptor", "EmulationPlatform",
    "WindowedMetrics", "FaultInjector", "FaultReport",
}


def run(spec, cycles=500):
    platform = build_platform(spec.to_platform_config())
    telemetry = (
        None if spec.telemetry_windows is None
        else WindowedMetrics(platform, spec.telemetry_windows)
    )
    engine = EmulationEngine(
        platform, faults=spec.faults, telemetry=telemetry
    )
    engine.run(max_cycles=cycles, finalize=False)
    return platform, engine


def fields_of(obj):
    names = set(getattr(obj, "__dict__", ()))
    for klass in type(obj).__mro__:
        slots = vars(klass).get("__slots__", ())
        names.update([slots] if isinstance(slots, str) else slots)
    return names


def walked_objects(platform, engine):
    """Every object reachable from the platform (and the engine's
    injector/telemetry) whose class declares ``__rebuilt__``."""
    network = platform.network
    todo = [
        platform, *network.links, *network.nis, *network.rx,
        *network.switches, engine._injector, engine.telemetry,
    ]
    seen = {}
    while todo:
        obj = todo.pop()
        if not hasattr(type(obj), "__rebuilt__") or id(obj) in seen:
            continue
        seen[id(obj)] = obj
        for name in fields_of(obj):
            value = getattr(obj, name)
            todo.extend(value if isinstance(value, list) else [value])
    return list(seen.values())


def test_every_rebuilt_entry_names_a_real_field():
    covered = set()
    for spec in SPECS:
        for obj in walked_objects(*run(spec)):
            covered.add(type(obj).__name__)
            fields = fields_of(obj)
            for klass in type(obj).__mro__:
                for name in vars(klass).get("__rebuilt__", ()):
                    assert name in fields, (
                        f"{klass.__name__}.__rebuilt__ names {name!r},"
                        f" which {type(obj).__name__} does not have"
                    )
    assert covered == WALKED


class TaggedLink(Link):
    __slots__ = ("tag",)

    def __init__(self, delay: int = 1, name: str = "") -> None:
        super().__init__(delay, name)
        self.tag = 0


def test_new_slot_on_a_walked_class_survives_restore(monkeypatch):
    monkeypatch.setattr("repro.noc.network.Link", TaggedLink)
    spec = SPECS[1]
    platform, engine = run(spec)
    for i, link in enumerate(platform.network.links):
        link.tag = i * 7
    checkpoint = snapshot(platform, spec, engine)
    assert [rec["tag"] for rec in checkpoint.state["links"]] == [
        i * 7 for i in range(len(platform.network.links))
    ]
    restored, _engine = restore(checkpoint)
    assert [link.tag for link in restored.network.links] == [
        link.tag for link in platform.network.links
    ]


def test_callable_in_a_walked_field_names_the_field():
    spec = SPECS[0]
    platform, engine = run(spec)
    platform.generators[0].on_emit = print
    with pytest.raises(CheckpointError, match=r"TrafficGenerator\.on_emit"):
        snapshot(platform, spec, engine)


def add_field(monkeypatch, cls, name):
    init = cls.__init__

    def patched(self, *args, **kwargs):
        init(self, *args, **kwargs)
        setattr(self, name, 0)

    monkeypatch.setattr(cls, "__init__", patched)


def test_fields_added_to_histogram_and_platform_are_captured(monkeypatch):
    add_field(monkeypatch, Histogram, "_peak_bin")
    add_field(monkeypatch, EmulationPlatform, "epoch")
    spec = SPECS[3]
    platform, engine = run(spec)
    platform.epoch = 5
    platform.receptors[0].gap_histogram._peak_bin = 9
    state = snapshot(platform, spec, engine).state
    assert state["platform"]["epoch"] == 5
    assert state["receptors"][0]["gap_histogram"]["peak_bin"] == 9
    restored, _engine = restore(snapshot(platform, spec, engine))
    assert restored.epoch == 5
    assert restored.receptors[0].gap_histogram._peak_bin == 9
