"""Tests for the queueing-vs-network latency decomposition."""

import pytest

from repro.core.engine import EmulationEngine
from repro.core.platform import build_platform
from repro.experiments.spec import ScenarioSpec
from repro.noc.flit import Packet
from repro.receptors.tracedriven import TraceDrivenReceptor
from repro.stats.latency import LatencyAnalyzer


def means(lat):
    """Mean queueing and network latency of the decomposed packets, as
    :func:`repro.stats.summary.scenario_metrics` derives them."""
    n = lat.decomposed_count
    if n == 0:
        return 0.0, 0.0
    return lat.total_queueing / n, lat.total_network / n


class TestAnalyzerDecomposition:
    def test_components_sum_to_total(self):
        lat = LatencyAnalyzer()
        p = Packet(src=0, dst=1, length=2, injection_cycle=0,
                   wire_entry_cycle=6)
        lat.record(p, 20)
        assert means(lat) == pytest.approx((6.0, 14.0))

    def test_unstamped_packets_skipped(self):
        lat = LatencyAnalyzer()
        lat.record(Packet(src=0, dst=1, length=1, injection_cycle=0), 9)
        assert lat.decomposed_count == 0
        assert means(lat) == (0.0, 0.0)
        assert lat.count == 1  # still counted for total latency

    def test_merge_carries_decomposition(self):
        a, b = LatencyAnalyzer(), LatencyAnalyzer()
        p = Packet(src=0, dst=1, length=1, injection_cycle=0,
                   wire_entry_cycle=3)
        b.record(p, 10)
        a.merge(b)
        assert a.decomposed_count == 1
        assert a.total_queueing == 3

    def test_reset_clears(self):
        lat = LatencyAnalyzer()
        p = Packet(src=0, dst=1, length=1, injection_cycle=0,
                   wire_entry_cycle=2)
        lat.record(p, 5)
        lat.reset()
        assert lat.decomposed_count == 0
        assert lat.total_network == 0


class TestEndToEndDecomposition:
    def run_platform(self, ppb):
        platform = build_platform(
            ScenarioSpec(
                traffic="trace",
                packets=None,
                traffic_params={
                    "n_bursts": max(2, 256 // ppb),
                    "packets_per_burst": ppb,
                },
            ).to_platform_config()
        )
        EmulationEngine(platform).run()
        analyzers = [
            r.latency
            for r in platform.receptors
            if isinstance(r, TraceDrivenReceptor)
        ]
        merged = LatencyAnalyzer()
        for a in analyzers:
            merged.merge(a)
        return merged

    def test_every_packet_decomposed(self):
        merged = self.run_platform(ppb=4)
        assert merged.decomposed_count == merged.count

    def test_components_account_for_mean(self):
        merged = self.run_platform(ppb=4)
        assert sum(means(merged)) == pytest.approx(merged.mean_latency)

    def test_congestion_shifts_latency_into_queueing(self):
        """The Slide 22 mechanism, observed directly: longer bursts
        push the latency growth into the source queue, not the NoC."""
        short = self.run_platform(ppb=1)
        long = self.run_platform(ppb=64)

        def queueing_share(lat):
            queueing, network = means(lat)
            return queueing / (queueing + network)

        assert queueing_share(long) > queueing_share(short)
        # Network time stays bounded by the path + serialisation,
        # growing far less than total latency does.
        assert means(long)[1] < long.mean_latency * 0.7
