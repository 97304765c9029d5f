"""Bit-identical resume parity of the checkpoint/restore layer.

The defining property of a checkpoint: cutting a run at *any* cycle
boundary, serialising the complete state, restoring it onto a freshly
built platform and continuing must land in exactly the state an
uninterrupted run reaches — not statistically close, structurally
identical.  The comparison is therefore the strongest one available:
the full :func:`~repro.checkpoint.snapshot` state dict (every FIFO,
park record, wheel slot, RNG, histogram bin and telemetry base) of
the resumed run must equal the uninterrupted run's, on both the
event-driven kernel and the scan-everything reference oracle.

Cut cycles are drawn from a seeded RNG over mixed-load scenarios —
a 90% saturation run (so cuts land on parked inputs mid-stall) and a
bursty run with long quiet stretches (so cuts land inside idle
fast-forward gaps) — and the tests assert the interesting state was
actually present at some cut (parked inputs, in-flight flits) so the
parity claim is never vacuous.
"""

import io
import json
import random
import zlib

import pytest

from repro.checkpoint import Checkpoint, load_checkpoint, restore, snapshot
from repro.core.engine import EmulationEngine
from repro.core.platform import build_platform
from repro.experiments.spec import ScenarioSpec
from repro.telemetry import FlitTracer, WindowedMetrics


def fresh_platform(spec):
    return build_platform(spec.to_platform_config())


def run_cycles(platform, cycles, kernel):
    step = platform.step if kernel == "step" else platform.step_reference
    for _ in range(cycles):
        step()


def round_trip(checkpoint):
    """Force the checkpoint through its serialised byte form."""
    record = json.loads(json.dumps(checkpoint.to_dict()))
    return Checkpoint.from_dict(record)


def resume_state(spec, cut, horizon, kernel):
    """Final state dict of a run interrupted (and restored) at ``cut``.

    Returns ``(final_state, cut_state)`` — the latter so callers can
    assert the checkpoint actually captured the condition under test.
    """
    platform = fresh_platform(spec)
    run_cycles(platform, cut, kernel)
    checkpoint = round_trip(snapshot(platform, spec))
    restored, _engine = restore(checkpoint)
    assert restored.cycle == cut
    run_cycles(restored, horizon - cut, kernel)
    return snapshot(restored, spec).state, checkpoint.state


SATURATION = ScenarioSpec(load=0.9, packets=120, seed=7)
BURSTY = ScenarioSpec(
    traffic="burst", load=0.25, packets=80, seed=11
)


@pytest.mark.parametrize("kernel", ["step", "step_reference"])
@pytest.mark.parametrize("spec", [SATURATION, BURSTY], ids=["sat", "burst"])
def test_resume_parity_random_cuts(spec, kernel):
    horizon = 1600
    platform = fresh_platform(spec)
    run_cycles(platform, horizon, kernel)
    want = snapshot(platform, spec).state
    assert want["platform"]["packets_received"] > 0

    # crc32, not hash(): str hashes change with PYTHONHASHSEED, and
    # the cuts must be the same in every process.
    stream = zlib.crc32(f"{spec.traffic}:{kernel}".encode())
    rng = random.Random(0xC0FFEE ^ stream & 0xFFFF)
    cuts = sorted(rng.randrange(40, horizon) for _ in range(4))
    saw_parked = saw_in_flight = False
    for cut in cuts:
        got, at_cut = resume_state(spec, cut, horizon, kernel)
        assert got == want, f"resume diverged for cut={cut}"
        saw_in_flight = saw_in_flight or at_cut["network"][
            "in_flight_flits"
        ] > 0
        saw_parked = saw_parked or any(
            inp["parked"]
            for sw in at_cut["switches"]
            for inp in sw["inputs"]
        )
    # Non-vacuity: the cuts must have exercised live wire state, and
    # the saturation scenario must have hit a parked input mid-stall.
    assert saw_in_flight
    if spec is SATURATION:
        assert saw_parked


@pytest.mark.parametrize("kernel", ["step", "step_reference"])
def test_resume_parity_mid_fast_forward(kernel):
    """A cut inside a bursty run's quiet stretch restores the poll
    caches exactly — the resumed run fast-forwards the same gaps."""
    spec = BURSTY
    horizon = 2000
    platform = fresh_platform(spec)
    run_cycles(platform, horizon, kernel)
    want = snapshot(platform, spec).state

    # Find a cut where the platform is quiet but not finished: no
    # flits on the wire and the next generator poll is in the future.
    platform = fresh_platform(spec)
    cut = None
    for cycle in range(1, horizon):
        run_cycles(platform, 1, kernel)
        if (
            platform.network.in_flight_flits == 0
            and platform._next_gen_poll > cycle + 1
            and platform.packets_received < spec.packets
        ):
            cut = cycle
            break
    assert cut is not None, "bursty run never went quiet mid-flight"
    checkpoint = round_trip(snapshot(platform, spec))
    restored, _ = restore(checkpoint)
    assert restored._next_gen_poll == platform._next_gen_poll
    run_cycles(restored, horizon - cut, kernel)
    assert snapshot(restored, spec).state == want


def test_resume_parity_through_save_load(tmp_path):
    """The on-disk round trip (save → load_checkpoint → restore) is
    as lossless as the in-memory one, and the loaded spec matches."""
    spec = SATURATION
    horizon, cut = 1200, 500
    platform = fresh_platform(spec)
    run_cycles(platform, horizon, "step")
    want = snapshot(platform, spec).state

    platform = fresh_platform(spec)
    run_cycles(platform, cut, "step")
    path = str(tmp_path / "cut.json")
    snapshot(platform, spec).save(path)
    checkpoint = load_checkpoint(path, spec=spec)
    assert checkpoint.spec == spec
    assert checkpoint.cycle == cut
    restored, _ = restore(checkpoint)
    run_cycles(restored, horizon - cut, "step")
    assert snapshot(restored, spec).state == want


def test_engine_resume_windows_and_metrics():
    """Engine-driven resume: chunked runs with a live windowed
    collector produce the identical window series and final metrics
    as one uninterrupted engine run — including a cut landing in the
    middle of a window (the differencing base is serialised state,
    not something recomputable at the restore cycle)."""
    spec = ScenarioSpec(
        traffic="burst", load=0.35, packets=100, seed=3,
        telemetry_windows=400,
    )
    platform = fresh_platform(spec)
    engine = EmulationEngine(
        platform, telemetry=WindowedMetrics(platform, window_cycles=400)
    )
    baseline = engine.run()
    want_windows = [r.to_dict() for r in engine.telemetry.records]
    want = snapshot(platform, spec, engine).state
    assert len(want_windows) >= 2

    # Cut at a non-boundary cycle inside the second window.
    cut = 700
    platform = fresh_platform(spec)
    engine = EmulationEngine(
        platform, telemetry=WindowedMetrics(platform, window_cycles=400)
    )
    engine.run(max_cycles=cut, finalize=False)
    checkpoint = round_trip(snapshot(platform, spec, engine))
    restored, resumed = restore(checkpoint)
    result = resumed.run()
    assert snapshot(restored, spec, resumed).state == want
    assert [r.to_dict() for r in resumed.telemetry.records] == want_windows
    assert restored.packets_received == baseline.packets_received
    assert restored.cycle == want["cycle"]
    assert result.completed


@pytest.mark.parametrize("kernel", ["step", "step_reference"])
def test_trace_stream_concatenates_bit_identically(kernel):
    """Detaching the tracer at the cut and attaching a fresh one after
    restore yields JSONL whose concatenation is byte-identical to the
    uninterrupted stream — the per-cycle canonical flush order leaves
    no seam at the cut."""
    spec = ScenarioSpec(load=0.6, packets=60, seed=5)
    horizon, cut = 1200, 450

    whole = io.StringIO()
    platform = fresh_platform(spec)
    tracer = FlitTracer(stream=whole, keep=False)
    platform.network.attach_tracer(tracer)
    run_cycles(platform, horizon, kernel)
    tracer.close()
    assert whole.getvalue(), "trace stream stayed empty"

    first = io.StringIO()
    platform = fresh_platform(spec)
    tracer = FlitTracer(stream=first, keep=False)
    platform.network.attach_tracer(tracer)
    run_cycles(platform, cut, kernel)
    platform.network.detach_tracer()
    tracer.close()
    checkpoint = round_trip(snapshot(platform, spec))

    second = io.StringIO()
    restored, _ = restore(checkpoint)
    tracer = FlitTracer(stream=second, keep=False)
    restored.network.attach_tracer(tracer)
    run_cycles(restored, horizon - cut, kernel)
    tracer.close()

    assert first.getvalue() + second.getvalue() == whole.getvalue()


def test_snapshot_refuses_attached_tracer():
    spec = ScenarioSpec(load=0.5, packets=20, seed=1)
    platform = fresh_platform(spec)
    platform.network.attach_tracer(FlitTracer(keep=True))
    from repro.checkpoint import CheckpointError

    with pytest.raises(CheckpointError, match="tracer"):
        snapshot(platform, spec)
