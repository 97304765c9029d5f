"""A recovery watch sleeps while the fabric is empty.

A fault event opens a watch that waits for the next delivered packet
(``FaultEventRecord.recovery_cycles``).  No packet can arrive while no
flit is in the fabric and no generator polls, so the injector does not
ask for those cycles: idle fast-forward stays engaged, and a run that
can never emit again ends with the horizon error instead of stepping
one cycle at a time until its wall-clock budget runs out.
"""

import dataclasses
import json

import pytest

from repro.checkpoint import Checkpoint, restore, snapshot
from repro.core.engine import build_engine, drive
from repro.core.errors import EmulationError, ScenarioTimeout
from repro.experiments.spec import ScenarioSpec
from repro.faults import FaultSchedule, link_down, link_up
from repro.faults.injector import FaultInjector
from repro.traffic.generator import NEVER

#: A link goes down at cycle 300 with the fabric empty; the next
#: emission is at cycle 335 and the first packet after the fault lands
#: 50 cycles after it.
SPEC = ScenarioSpec(
    topology="mesh:2:2", traffic="poisson", seed=3, load=0.002,
    packets=6,
    faults=FaultSchedule.of(link_down(300, 0, 1), link_up(3000, 0, 1)),
)


def every_cycle_wake(self, now):
    """The reference rule: an open watch ticks on every cycle."""
    if self._flaky or self._awaiting:
        return now + 1
    if self._next_idx < len(self._events):
        return self._events[self._next_idx].cycle
    return NEVER


def report_of(result):
    """The fault report without its host wall-clock fields."""
    report = dataclasses.asdict(result.faults)
    for event in report["events"]:
        event["repair_wall_seconds"] = 0.0
    return report


def test_an_idle_faulted_run_ends_with_the_horizon_error():
    spec = ScenarioSpec(
        topology="mesh:2:2", traffic="poisson", seed=3, load=1e-100,
        packets=2,
        faults=FaultSchedule.of(link_down(300, 0, 1), link_up(5000, 0, 1)),
    )
    with pytest.raises(EmulationError, match="run cannot end") as excinfo:
        drive(build_engine(spec)[1], max_wall_seconds=5)
    assert not isinstance(excinfo.value, ScenarioTimeout)


def test_the_watch_sleeps_until_the_next_poll(monkeypatch):
    ticks = []
    tick = FaultInjector.tick

    def counted(self, now):
        ticks.append(now)
        return tick(self, now)

    monkeypatch.setattr(FaultInjector, "tick", counted)
    _platform, engine = build_engine(SPEC)
    result = engine.run()
    assert result.completed
    assert result.faults.events[0].recovery_cycles == 50
    # Asleep from the fault to the next poll, then once per cycle
    # while the packet crosses the fabric.
    assert ticks[:3] == [300, 335, 336]


@pytest.mark.parametrize("fast_forward", [True, False])
def test_same_report_as_a_watch_that_ticks_every_cycle(
    monkeypatch, fast_forward
):
    _platform, engine = build_engine(SPEC)
    got = report_of(engine.run(fast_forward=fast_forward))
    monkeypatch.setattr(FaultInjector, "_wake_cycle", every_cycle_wake)
    _platform, engine = build_engine(SPEC)
    assert got == report_of(engine.run(fast_forward=fast_forward))


def comparable(platform, engine):
    """The snapshot state with the wall-clock-only fields zeroed."""
    state = json.loads(json.dumps(snapshot(platform, SPEC, engine).state))
    report = state["faults"]["injector"]["report"]
    report["repair_wall_seconds"] = 0.0
    for event in report["events"]:
        event["repair_wall_seconds"] = 0.0
    return state


@pytest.mark.parametrize("cut", [320, 336, 350])
def test_a_cut_inside_the_watch_resumes_bit_identically(cut):
    """Cycle 320 is inside the sleep; 336 and 350 fall while the
    packet that ends the watch crosses the fabric, 350 just after
    it lands."""
    horizon = 4000
    platform, engine = build_engine(SPEC)
    engine.run(max_cycles=horizon, finalize=False)
    want = comparable(platform, engine)

    platform, engine = build_engine(SPEC)
    engine.run(max_cycles=cut, finalize=False)
    assert engine._injector._awaiting
    record = json.loads(json.dumps(snapshot(platform, SPEC, engine).to_dict()))
    restored, resumed = restore(Checkpoint.from_dict(record))
    assert restored.cycle == cut
    resumed.run(max_cycles=horizon - cut, finalize=False)
    assert comparable(restored, resumed) == want
