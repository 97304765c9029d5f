"""Checkpoint bench: snapshot/restore cost and the warm-start payoff.

Emits ``BENCH_checkpoint.json``: the wall cost of capturing and
restoring a complete warmed-up platform state, and the end-to-end
speedup of a warm-started load sweep (ramp once, fork per point)
against the cold equivalent (re-ramp every point) — with the warm
points' metrics asserted bit-identical to the cold ones, because the
whole point of resume parity is that the speedup costs nothing.

The drift guard is exactness: the ramp checkpoint's content hash and
every warm metric record are deterministic functions of the spec, so
if any of them differ from the committed record the bench **fails
loudly before overwriting it** — a silent change in captured state or
in restore semantics can never rewrite its own baseline.
"""

import json
import os
import time

import pytest

from benchmarks.conftest import (
    RESULTS_DIR,
    check_no_drift,
    emit,
    format_table,
)
from repro.checkpoint import Checkpoint, restore, snapshot
from repro.experiments import (
    ScenarioSpec,
    make_ramp_checkpoint,
    run_cold_point,
    run_warm_point,
)

pytestmark = pytest.mark.perf

SPEC = ScenarioSpec(load=0.45, packets=None, seed=5)
RAMP_CYCLES = 8000
HORIZON = 2500
LOADS = (0.2, 0.4, 0.6, 0.8)
REPS = 5


def best_of(fn, reps=REPS):
    """Best-of-N wall seconds of ``fn()`` (returns last result too)."""
    best = None
    result = None
    for _ in range(reps):
        started = time.process_time()
        result = fn()
        elapsed = time.process_time() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def run_bench():
    ramp_started = time.process_time()
    checkpoint = make_ramp_checkpoint(SPEC, ramp_cycles=RAMP_CYCLES)
    ramp_wall = time.process_time() - ramp_started

    # Capture / restore / serialise costs on the warmed state.
    platform, _ = restore(checkpoint)
    snap_wall, cp2 = best_of(lambda: snapshot(platform, SPEC))
    restore_wall, _ = best_of(lambda: restore(checkpoint))
    blob = json.dumps(cp2.to_dict())
    parse_wall, _ = best_of(
        lambda: Checkpoint.from_dict(json.loads(blob))
    )

    # Warm vs cold sweep over the load grid.
    warm_wall = ramp_wall
    cold_wall = 0.0
    points = []
    for load in LOADS:
        warm = run_warm_point(checkpoint, load, HORIZON)
        cold = run_cold_point(SPEC, RAMP_CYCLES, load, HORIZON)
        assert warm.metrics == cold.metrics, (
            f"warm point load={load} diverged from its cold twin —"
            f" resume parity broken, refusing to report a speedup"
            f" bought with wrong numbers"
        )
        warm_wall += warm.wall_seconds
        cold_wall += cold.wall_seconds
        points.append(
            {
                "load": load,
                "warm_s": round(warm.wall_seconds, 4),
                "cold_s": round(cold.wall_seconds, 4),
                "metrics": {
                    "mean_latency": warm.metrics["mean_latency"],
                    "accepted_flits_per_cycle": warm.metrics[
                        "accepted_flits_per_cycle"
                    ],
                    "packets_received": warm.metrics[
                        "packets_received"
                    ],
                },
            }
        )
    speedup = cold_wall / warm_wall if warm_wall else 0.0
    assert speedup > 1.0, (
        f"warm sweep ({warm_wall:.2f}s incl. ramp) did not beat cold"
        f" ({cold_wall:.2f}s) — the fork is supposed to be cheaper"
        f" than a {RAMP_CYCLES}-cycle ramp"
    )

    return {
        "deterministic": {
            "checkpoint_hash": checkpoint.content_hash,
            "checkpoint_cycle": checkpoint.cycle,
            "points": [
                {"load": p["load"], "metrics": p["metrics"]}
                for p in points
            ],
        },
        "wall": {
            "ramp_s": round(ramp_wall, 4),
            "snapshot_s": round(snap_wall, 4),
            "restore_s": round(restore_wall, 4),
            "parse_s": round(parse_wall, 4),
            "checkpoint_bytes": len(blob),
            "warm_sweep_s": round(warm_wall, 4),
            "cold_sweep_s": round(cold_wall, 4),
            "speedup": round(speedup, 3),
        },
        "points": points,
    }


def test_checkpoint_bench():
    report = run_bench()

    baseline_path = os.path.join(RESULTS_DIR, "BENCH_checkpoint.json")
    check_no_drift(report, baseline_path, "checkpoint")

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(baseline_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)

    wall = report["wall"]
    rows = [
        (
            f"{p['load']:.2f}",
            f"{p['metrics']['mean_latency']:.1f}",
            f"{p['warm_s'] * 1e3:.1f}",
            f"{p['cold_s'] * 1e3:.1f}",
        )
        for p in report["points"]
    ]
    rows.append(
        (
            "total",
            "-",
            f"{wall['warm_sweep_s'] * 1e3:.1f}",
            f"{wall['cold_sweep_s'] * 1e3:.1f}",
        )
    )
    emit(
        "checkpoint",
        format_table(
            ("load", "latency", "warm ms", "cold ms"), rows
        )
        + (
            f"\nsnapshot {wall['snapshot_s'] * 1e3:.1f} ms,"
            f" restore {wall['restore_s'] * 1e3:.1f} ms,"
            f" record {wall['checkpoint_bytes'] / 1024:.0f} KiB;"
            f" warm sweep {wall['speedup']:.2f}x faster than cold"
            f" (ramp {RAMP_CYCLES} cycles paid once instead of"
            f" {len(LOADS)} times)\n"
        ),
    )
