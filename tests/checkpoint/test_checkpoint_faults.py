"""Checkpointing a faulted run: the injector state survives the cut.

The nastiest resume cases are the ones where the platform no longer
matches its pristine build: a checkpoint taken between ``link_down``
and ``link_up`` must restore the repaired route tables, the detached
credit hooks and the pending-heal cursor; one taken inside a flaky
window must restore the drop RNG mid-stream so every later drop
decision falls on exactly the same flit.  The comparison is again the
full snapshot state dict — with ``repair_wall_seconds`` zeroed on
both sides, the one field that measures host wall time rather than
emulated state.
"""

import json

import pytest

from repro.checkpoint import Checkpoint, restore, snapshot
from repro.core.engine import EmulationEngine
from repro.core.platform import build_platform
from repro.experiments.spec import ScenarioSpec
from repro.faults import FaultEvent, FaultSchedule, link_down, link_up

pytestmark = pytest.mark.chaos


SCHEDULE = FaultSchedule(
    events=(
        link_down(400, 1, 4),
        link_up(1400, 1, 4),
        FaultEvent("flaky", 1600, a=2, b=5, until=2200, drop_p=0.35, seed=9),
    )
)
SPEC = ScenarioSpec(load=0.7, packets=300, seed=2, faults=SCHEDULE)
HORIZON = 2600


def fresh_run():
    platform = build_platform(SPEC.to_platform_config())
    engine = EmulationEngine(platform, faults=SPEC.faults)
    return platform, engine


def comparable(state):
    """The snapshot state with the wall-clock-only field zeroed."""
    state = json.loads(json.dumps(state))
    if state.get("faults"):
        report = state["faults"]["injector"]["report"]
        report["repair_wall_seconds"] = 0.0
        for event in report["events"]:
            if "repair_wall_seconds" in event:
                event["repair_wall_seconds"] = 0.0
    return state


def faulted_resume(cut):
    """(uninterrupted_state, resumed_state, cut_checkpoint)."""
    platform, engine = fresh_run()
    engine.run(max_cycles=HORIZON, finalize=False)
    want = comparable(snapshot(platform, SPEC, engine).state)

    platform, engine = fresh_run()
    engine.run(max_cycles=cut, finalize=False)
    record = json.loads(json.dumps(snapshot(platform, SPEC, engine).to_dict()))
    checkpoint = Checkpoint.from_dict(record)
    restored, resumed = restore(checkpoint)
    assert restored.cycle == cut
    resumed.run(max_cycles=HORIZON - cut, finalize=False)
    return want, comparable(snapshot(restored, SPEC, resumed).state), checkpoint


def test_cut_between_link_down_and_link_up():
    """cycle 800: the 1-3 links are dead, traffic runs on repaired
    tables, and the heal event is still pending in the injector."""
    want, got, checkpoint = faulted_resume(800)
    injector = checkpoint.state["faults"]["injector"]
    assert injector["dead_pairs"], "cut did not land on a dead link"
    assert injector["saved_credit_keys"], "no detached credit hooks"
    assert any(
        rec.get("repaired") for rec in injector["report"]["events"]
    ), "routing repair did not happen before the cut"
    assert got == want


def test_cut_inside_flaky_window_preserves_drop_decisions():
    """cycle 1900: mid-flaky-window.  The per-event drop RNG cursor is
    part of the state, so the resumed run drops the same flits and the
    per-link ``flits_dropped`` counters match exactly."""
    want, got, checkpoint = faulted_resume(1900)
    assert checkpoint.state["faults"]["injector"]["flaky"], (
        "cut did not land inside the flaky window"
    )
    assert got == want
    dropped = sum(link["flits_dropped"] for link in want["links"])
    assert dropped > 0, "flaky window never dropped a flit"
    assert [link["flits_dropped"] for link in got["links"]] == [
        link["flits_dropped"] for link in want["links"]
    ]


def test_faulted_resume_matches_final_report():
    """Running both runs to completion (finalize on) yields identical
    fault reports — recovery cycles, per-event drop counts, repaired
    flags — modulo the wall-clock repair timer."""
    def clean(report):
        report = json.loads(json.dumps(report.to_dict()))
        report["repair_wall_seconds"] = 0.0
        for event in report["events"]:
            if "repair_wall_seconds" in event:
                event["repair_wall_seconds"] = 0.0
        return report

    platform, engine = fresh_run()
    baseline = engine.run()
    want = clean(baseline.faults)

    platform, engine = fresh_run()
    engine.run(max_cycles=800, finalize=False)
    record = json.loads(json.dumps(snapshot(platform, SPEC, engine).to_dict()))
    restored, resumed = restore(Checkpoint.from_dict(record))
    result = resumed.run()
    assert clean(result.faults) == want
    assert result.completed
    assert restored.packets_received == baseline.packets_received


def test_healthy_platform_snapshot_needs_no_engine():
    """A faulted spec at cycle 0 snapshots engine-less (nothing has
    mutated yet); after stepping it must demand the engine."""
    from repro.checkpoint import CheckpointError

    platform = build_platform(SPEC.to_platform_config())
    snapshot(platform, SPEC)  # cycle 0: fine
    engine = EmulationEngine(platform, faults=SPEC.faults)
    engine.run(max_cycles=500, finalize=False)
    with pytest.raises(CheckpointError, match="injector"):
        snapshot(platform, SPEC)
