"""Ablation — the "two routing possibilities" (Slide 19).

Runs the paper workload under all three route cases the platform's
tables can express: overlap (all flows through the middle links),
disjoint (dimension-ordered, no sharing) and split (per-packet choice
between the two).  Expected: disjoint < split < overlap in congestion
and latency; the hot-link load halves from overlap (~90%) to split
(~45%).
"""

import pytest

from benchmarks.conftest import emit
from repro.core.engine import EmulationEngine
from repro.core.platform import build_platform
from repro.experiments import render_table
from repro.experiments.spec import ScenarioSpec
from repro.noc.topology import paper_hot_links
from repro.stats.summary import scenario_metrics

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
    # The metric record holds no link loads: the platform is read.
    loads = platform.network.link_loads()
    metrics = scenario_metrics(platform, result)
    return {
        "hot_link": max(loads[pair] for pair in paper_hot_links()),
        "congestion": metrics["congestion_rate"],
        "latency": metrics["mean_latency"],
        "cycles": metrics["cycles"],
    }


def test_ablation_routing_cases():
    results = {case: run_case(case) for case in CASES}
    emit(
        "ablation_routing",
        render_table(
            [
                {
                    "route case": case,
                    "middle link load": f"{r['hot_link']:.2f}",
                    "congestion": f"{r['congestion']:.4f}",
                    "mean latency": f"{r['latency']:.1f}",
                    "cycles": r["cycles"],
                }
                for case, r in results.items()
            ]
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
