"""Golden checkpoint hashes: the serialized state is pinned byte for byte.

Each spec is run to a fixed cut cycle (loads high enough that inputs
are parked and flits are on the wires there) and snapshotted; the
``content_hash`` of the record must equal the recorded value.  A change
to how state is captured — a renamed key, a reordered list, a field
gained or lost — changes the hash, so this test guards checkpoint
bytes across refactors of the capture/restore code.  The one
host-dependent field, ``repair_wall_seconds``, is zeroed before
hashing.
"""

import pytest

from repro.checkpoint import Checkpoint, snapshot
from repro.core.engine import EmulationEngine
from repro.core.platform import build_platform
from repro.experiments import (
    make_ramp_checkpoint,
    run_cold_point,
    run_warm_point,
)
from repro.experiments.spec import ScenarioSpec
from repro.faults import FaultEvent, FaultSchedule, link_down
from repro.telemetry import WindowedMetrics

CUT = 700

FAULTS = FaultSchedule(
    events=(
        link_down(300, 1, 4),
        FaultEvent("flaky", 350, a=2, b=5, until=1200, drop_p=0.3, seed=4),
    ),
    repair=True,
)

GOLDEN = [
    (ScenarioSpec(traffic="uniform", load=0.8, seed=3),
     "e60bbd2bdb11c594"),
    (ScenarioSpec(traffic="poisson", load=0.8, receptors="stochastic",
                  arbitration="fixed_priority", seed=4),
     "b1d9ba1baf1ac8ea"),
    (ScenarioSpec(traffic="burst", load=0.8, arbitration="matrix",
                  seed=5),
     "f3d909d7f0d27748"),
    (ScenarioSpec(traffic="onoff", load=0.8, receptors="stochastic",
                  seed=6),
     "7b48a0ed03f8ac51"),
    (ScenarioSpec(traffic="trace", load=0.8, seed=7),
     "d1eb59650d6f8cb5"),
    (ScenarioSpec(topology="mesh:3:3", load=0.9, arbitration="matrix",
                  receptors="stochastic", seed=8),
     "09361e177dc76d4b"),
    (ScenarioSpec(switching="store_and_forward", length=4, load=0.8,
                  seed=9),
     "07ffaca367a86558"),
    (ScenarioSpec(load=0.8, telemetry_windows=160, seed=10),
     "697377d5fb5afc57"),
    (ScenarioSpec(load=0.8, faults=FAULTS, seed=11),
     "7b3c2e71f508b10a"),
    (ScenarioSpec(topology="mesh:3:3", traffic="burst", load=0.8,
                  arbitration="fixed_priority", seed=12),
     "8576e2ab45780b0d"),
]


def cut_checkpoint(spec: ScenarioSpec) -> Checkpoint:
    """Snapshot of ``spec`` at :data:`CUT`, wall-clock fields zeroed."""
    platform = build_platform(spec.to_platform_config())
    telemetry = (
        None if spec.telemetry_windows is None
        else WindowedMetrics(platform, spec.telemetry_windows)
    )
    engine = EmulationEngine(
        platform, faults=spec.faults, telemetry=telemetry
    )
    engine.run(max_cycles=CUT, finalize=False)
    checkpoint = snapshot(platform, spec, engine)
    faults = checkpoint.state["faults"]
    if faults is not None and faults["injector"] is not None:
        for event in faults["injector"]["report"]["events"]:
            event["repair_wall_seconds"] = 0.0
    return checkpoint


@pytest.mark.parametrize(
    "spec, digest", GOLDEN, ids=[f"g{i}" for i in range(len(GOLDEN))]
)
def test_checkpoint_hash_is_pinned(spec, digest):
    checkpoint = cut_checkpoint(spec)
    assert checkpoint.cycle == CUT
    assert checkpoint.content_hash == digest


def test_golden_cuts_hold_parked_inputs_and_inflight_flits():
    """The cut lands mid-traffic: parked inputs, flits on the wires,
    a mid-window telemetry base and live fault state are all part of
    the pinned bytes."""
    parked = wired = 0
    for spec, _digest in GOLDEN:
        state = cut_checkpoint(spec).state
        parked += sum(
            rec["parked"]
            for sw in state["switches"]
            for rec in sw["inputs"]
        )
        wired += sum(map(len, state["network"]["flit_wheel"]))
        if spec.telemetry_windows is not None:
            assert CUT % spec.telemetry_windows
            assert state["telemetry"]["base"] is not None
        if spec.faults is not None:
            injector = state["faults"]["injector"]
            assert injector["dead_pairs"] and injector["flaky"]
    assert parked > 0
    assert wired > 0


#: The warm-start sweep's ramp: the paper platform at 45% uniform load,
#: unbounded, checkpointed at cycle 8000 and forked at four loads for
#: 2500 cycles each.  The hash and each point's metric triple are
#: pinned, and each warm point must equal its cold twin.
RAMP_SPEC = ScenarioSpec(load=0.45, packets=None, seed=5)
RAMP_CYCLES = 8000
RAMP_HASH = "c58bd96bc49d67b9"
HORIZON = 2500
WARM_POINTS = [
    (0.2, 20.0, 6.4896, 2028),
    (0.4, 20.0, 7.2832, 2276),
    (0.6, 46.87, 7.68, 2400),
    (0.8, 51.7875, 7.68, 2400),
]


def test_ramp_checkpoint_and_warm_points_are_pinned():
    checkpoint = make_ramp_checkpoint(RAMP_SPEC, ramp_cycles=RAMP_CYCLES)
    assert checkpoint.cycle == RAMP_CYCLES
    assert checkpoint.content_hash == RAMP_HASH
    measured = []
    for load, *_ in WARM_POINTS:
        warm = run_warm_point(checkpoint, load, HORIZON)
        cold = run_cold_point(RAMP_SPEC, RAMP_CYCLES, load, HORIZON)
        assert warm.metrics == cold.metrics, load
        measured.append((
            load,
            warm.metrics["mean_latency"],
            warm.metrics["accepted_flits_per_cycle"],
            warm.metrics["packets_received"],
        ))
    assert measured == WARM_POINTS
