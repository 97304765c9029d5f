"""A chunked run is one run: ``finalize=False`` chunks of any size end
where a single ``run()`` ends.

The stagnation guard's progress clock is engine state, so a run that
stalls after an unrepaired fault degrades at the same cycle whether it
runs in one call, in chunks of 250 cycles or one cycle at a time; the
progress meter likewise spans the chunks and reports once.
"""

import pytest

from repro.core.engine import DegradedResult, build_engine, drive
from repro.experiments.spec import ScenarioSpec
from repro.faults import FaultSchedule, link_down, switch_down

STAGNATION = 2000
#: Far past where every case below ends; bounds a chunked run whose
#: guard never trips.
HORIZON = 20_000

SPECS = {
    "link-down": ScenarioSpec(
        topology="mesh:4:4", load=0.1, packets=50, telemetry_windows=500,
        faults=FaultSchedule.of(link_down(300, 5, 6), repair=False),
    ),
    "switch-down": ScenarioSpec(
        topology="mesh:4:4", load=0.2, packets=40, seed=3,
        telemetry_windows=250,
        faults=FaultSchedule.of(switch_down(400, 9), repair=False),
    ),
}


@pytest.fixture(autouse=True)
def stagnation(monkeypatch):
    monkeypatch.setattr("repro.core.engine.STAGNATION_CYCLES", STAGNATION)


def single(spec):
    platform, engine = build_engine(spec)
    return platform, engine.run()


def chunked(spec, k):
    platform, engine = build_engine(spec)
    while True:
        result = engine.run(max_cycles=k, finalize=False)
        if (
            result.completed
            or isinstance(result, DegradedResult)
            or platform.cycle >= HORIZON
        ):
            return platform, engine.finalize_run(result)


@pytest.mark.parametrize("k", [1, 7, 250])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_chunked_run_degrades_like_one_run(name, k):
    want_platform, want = single(SPECS[name])
    assert isinstance(want, DegradedResult)  # the case is not vacuous
    platform, got = chunked(SPECS[name], k)
    assert type(got) is type(want)
    assert platform.cycle == want_platform.cycle
    assert got.degraded_reason == want.degraded_reason
    assert got.faults.to_dict() == want.faults.to_dict()
    assert got.windows == want.windows
    assert (got.packets_sent, got.packets_received) == (
        want.packets_sent, want.packets_received,
    )


@pytest.mark.parametrize("every", [None, 97])
def test_drive_equals_one_run(every):
    spec = SPECS["switch-down"]
    want_platform, engine = build_engine(spec)
    want = engine.run()
    platform, engine = build_engine(spec)
    samples = []
    got = drive(engine, every=every, progress=samples.append)
    assert type(got) is type(want)
    assert got.cycles == platform.cycle == want_platform.cycle
    assert got.faults.to_dict() == want.faults.to_dict()
    assert got.windows == want.windows
    assert [s.final for s in samples].count(True) == 1
    assert samples[-1].final and samples[-1].cycle == platform.cycle


def test_meter_spans_chunks():
    _, engine = build_engine(ScenarioSpec(topology="mesh:4:4", packets=30))
    samples = []
    while True:
        result = engine.run(
            max_cycles=100, finalize=False, progress=samples.append
        )
        if result.completed:
            break
    assert not any(s.final for s in samples)
    engine.finalize_run(result)
    assert [s.final for s in samples].count(True) == 1
    fractions = [s.budget_fraction for s in samples]
    assert fractions == sorted(fractions) and fractions[-1] == 1.0
