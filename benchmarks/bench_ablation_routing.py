"""Ablation — the "two routing possibilities" (Slide 19).

Runs the paper workload under all three route cases the platform's
tables can express: overlap (all flows through the middle links),
disjoint (dimension-ordered, no sharing) and split (per-packet choice
between the two).  Expected: disjoint < split < overlap in congestion
and latency; the hot-link load halves from overlap (~90%) to split
(~45%).
"""

import pytest

from benchmarks.conftest import emit, format_table
from repro.core.engine import EmulationEngine
from repro.core.platform import build_platform
from repro.experiments.spec import ScenarioSpec
from repro.noc.topology import paper_hot_links

pytestmark = pytest.mark.perf

CASES = ("overlap", "split", "disjoint")
PACKETS = 1500


def run_case(case: str):
    platform = build_platform(
        ScenarioSpec(
            packets=PACKETS, routing=case, seed=6
        ).to_platform_config()
    )
    result = EmulationEngine(platform).run()
    assert result.completed
    loads = platform.network.link_loads()
    hot = max(loads[pair] for pair in paper_hot_links())
    return {
        "hot_link": hot,
        "congestion": platform.congestion_rate(),
        "latency": platform.mean_latency(),
        "cycles": result.cycles,
    }


def test_ablation_routing_cases(benchmark):
    results = {case: run_case(case) for case in CASES}
    rows = [
        (
            case,
            f"{r['hot_link']:.2f}",
            f"{r['congestion']:.4f}",
            f"{r['latency']:.1f}",
            r["cycles"],
        )
        for case, r in results.items()
    ]
    emit(
        "ablation_routing",
        format_table(
            [
                "route case",
                "middle link load",
                "congestion",
                "mean latency",
                "cycles",
            ],
            rows,
        ),
    )

    # Hot-link load: overlap ~0.9, split ~0.45, disjoint ~0 (unused).
    assert results["overlap"]["hot_link"] == pytest.approx(0.9, abs=0.05)
    assert results["split"]["hot_link"] == pytest.approx(0.45, abs=0.08)
    assert results["disjoint"]["hot_link"] < 0.05

    # Congestion/latency ordering across the cases.
    assert (
        results["disjoint"]["congestion"]
        <= results["split"]["congestion"]
        <= results["overlap"]["congestion"]
    )
    assert (
        results["disjoint"]["latency"] < results["overlap"]["latency"]
    )

    benchmark(lambda: run_case("disjoint"))
