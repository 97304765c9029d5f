"""Fault-injection bench: repair latency and degraded throughput.

Runs the paper platform through three fault stories — a mid-run hot
link cut that heals later, a flaky window, and an unrepaired cut that
degrades — and emits ``BENCH_faults.json``: the wall-clock cost of an
online routing repair (rebuild + deadlock vet + dense recompile, the
software-only reconfiguration Slide 13 sells) next to the per-window
throughput the fault cost the fabric.

The guard is exactness, not speed: every field except the wall-clock
repair latencies is a deterministic function of the schedule, so if
*any* deterministic field differs from the committed record the bench
**fails loudly before overwriting it** — drift in drop accounting or
reroute behaviour can never silently rewrite its own baseline.
"""

import json
import os

import pytest

from benchmarks.conftest import (
    RESULTS_DIR,
    check_no_drift,
    emit,
    format_table,
)
from repro.core.engine import EmulationEngine
from repro.core.platform import build_platform
from repro.experiments.spec import ScenarioSpec
from repro.faults import (
    FaultSchedule,
    flaky,
    link_down,
    link_up,
)

pytestmark = pytest.mark.perf

SCENARIOS = {
    # Cut both directions of a hot middle link mid-run, heal them
    # later: two repairs (around the cut, back after the heal) with a
    # long degraded window between.
    "reroute": FaultSchedule.of(
        link_down(3000, 1, 4),
        link_down(3000, 4, 1),
        link_up(9000, 1, 4),
        link_up(9000, 4, 1),
    ),
    # A lossy window on the same pair: per-flit seeded drops, one
    # abort settlement per hit.
    "flaky": FaultSchedule.of(
        flaky(2000, 1, 4, until=6000, drop_p=0.1, seed=3),
        flaky(2000, 4, 1, until=6000, drop_p=0.1, seed=4),
    ),
    # No repair: the cut stays, the watchdog escalates to a structured
    # DegradedResult instead of a deadlock error.
    "degraded": FaultSchedule.of(
        link_down(3000, 1, 4), link_down(3000, 4, 1), repair=False
    ),
}

PACKETS = {"reroute": 1200, "flaky": 1200, "degraded": 600}
STAGNATION = 20_000


def run_one(name):
    schedule = SCENARIOS[name]
    spec = ScenarioSpec(topology="paper", packets=PACKETS[name], seed=1)
    platform = build_platform(spec.to_platform_config())
    result = EmulationEngine(platform, faults=schedule).run(
        stagnation_cycles=STAGNATION
    )
    report = result.faults
    record = {
        # Deterministic: guarded for exact equality below.
        "deterministic": {
            "cycles": result.cycles,
            "packets_sent": result.packets_sent,
            "packets_received": result.packets_received,
            "completed": result.completed,
            "degraded": report.degraded,
            "dropped_flits": report.dropped_flits,
            "dropped_packets": report.dropped_packets,
            "reroutes": len(report.reroutes),
            "recovery_cycles": [
                e.recovery_cycles for e in report.events
            ],
            "windows": [
                {
                    "label": w.label,
                    "cycles": w.cycles,
                    "packets_received": w.packets_received,
                    "throughput": round(w.throughput, 6),
                }
                for w in report.windows
            ],
        },
        # Informational: host wall time of the online repairs.
        "repair_wall_ms": [
            round(e.repair_wall_seconds * 1e3, 3)
            for e in report.events
            if e.repaired
        ],
    }
    return record


def test_fault_repair_bench():
    report = {name: run_one(name) for name in SCENARIOS}

    baseline_path = os.path.join(RESULTS_DIR, "BENCH_faults.json")
    check_no_drift(report, baseline_path, "fault", per_name=True)

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(baseline_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)

    rows = []
    for name, record in report.items():
        det = record["deterministic"]
        walls = record["repair_wall_ms"]
        during = [
            w
            for w in det["windows"]
            if w["label"].startswith("after")
        ]
        rows.append(
            (
                name,
                det["cycles"],
                det["dropped_flits"],
                det["reroutes"],
                (
                    f"{max(walls):.2f}" if walls else "-"
                ),
                (
                    f"{min(w['throughput'] for w in during):.4f}"
                    if during
                    else "-"
                ),
                "yes" if det["degraded"] else "no",
            )
        )
    emit(
        "fault_repair",
        format_table(
            [
                "scenario",
                "cycles",
                "dropped",
                "reroutes",
                "repair ms (max)",
                "min window tput",
                "degraded",
            ],
            rows,
        ),
    )

    # Sanity floors: the repaired runs finish, the unrepaired one
    # degrades structurally.
    assert report["reroute"]["deterministic"]["completed"]
    assert report["flaky"]["deterministic"]["completed"]
    assert report["degraded"]["deterministic"]["degraded"]
    assert not report["degraded"]["deterministic"]["completed"]
