"""F1 — the paper's experimental setup (Slide 19).

Validates the operating point the evaluation figures are measured at:
each TG at 45% of the maximum bandwidth, two routing possibilities per
flow, and — in the overlapping route case — exactly two inter-switch
links loaded at ~90%.
"""

from typing import Any, Dict, NamedTuple

import pytest

from repro.core.engine import EmulationEngine
from repro.core.platform import EmulationPlatform, build_platform
from repro.experiments.spec import ScenarioSpec
from repro.noc.topology import paper_hot_links
from repro.stats.summary import scenario_metrics


class Run(NamedTuple):
    """A finished run: its platform (link loads) and metric record."""

    platform: EmulationPlatform
    metrics: Dict[str, Any]


def run_paper(routing_case, packets=1500, traffic="uniform"):
    platform = build_platform(
        ScenarioSpec(
            traffic=traffic,
            packets=packets,
            routing=routing_case,
        ).to_platform_config()
    )
    result = EmulationEngine(platform).run()
    return Run(platform, scenario_metrics(platform, result))


class TestOperatingPoint:
    @pytest.fixture(scope="class")
    def overlap(self):
        return run_paper("overlap")

    @pytest.fixture(scope="class")
    def disjoint(self):
        return run_paper("disjoint")

    def test_feeder_links_at_45_percent(self, overlap):
        loads = overlap.platform.network.link_loads()
        # Every non-hot inter-switch link on a flow path carries one
        # 45% flow (measured within 3 points of the paper's 45%).
        feeders = [(0, 1), (2, 1), (3, 4), (5, 4)]
        for pair in feeders:
            assert loads[pair] == pytest.approx(0.45, abs=0.03), pair

    def test_two_hot_links_at_90_percent(self, overlap):
        loads = overlap.platform.network.link_loads()
        for pair in paper_hot_links():
            assert loads[pair] == pytest.approx(0.90, abs=0.04), pair

    def test_hot_links_are_the_maximum(self, overlap):
        loads = overlap.platform.network.link_loads()
        hottest = sorted(loads, key=loads.get, reverse=True)[:2]
        assert set(hottest) == set(paper_hot_links())

    def test_disjoint_case_has_no_hot_links(self, disjoint):
        loads = disjoint.platform.network.link_loads()
        assert max(loads.values()) == pytest.approx(0.45, abs=0.03)

    def test_overlap_congests_disjoint_does_not(
        self, overlap, disjoint
    ):
        assert (
            overlap.metrics["congestion_rate"]
            > disjoint.metrics["congestion_rate"]
        )
        assert disjoint.metrics["congestion_rate"] == pytest.approx(
            0.0, abs=0.01
        )

    def test_latency_higher_in_overlap_case(self, overlap, disjoint):
        assert (
            overlap.metrics["mean_latency"]
            > disjoint.metrics["mean_latency"]
        )

    def test_all_traffic_delivered_in_both_cases(
        self, overlap, disjoint
    ):
        for run in (overlap, disjoint):
            assert run.platform.packets_received == 4 * 1500


class TestSplitCase:
    def test_split_halves_hot_link_load(self):
        loads = run_paper("split").platform.network.link_loads()
        for pair in paper_hot_links():
            # Each packet picks one of the two cases: the middle links
            # carry roughly half of the overlap-case load.
            assert loads[pair] == pytest.approx(0.45, abs=0.08), pair

    def test_split_delivers_everything(self):
        split = run_paper("split", packets=800)
        assert split.platform.packets_received == 4 * 800
