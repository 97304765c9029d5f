"""Unit tests for the buffer-occupancy report."""

import pytest

from repro.core.engine import EmulationEngine
from repro.core.platform import build_platform
from repro.experiments.spec import ScenarioSpec
from repro.noc.network import Network
from repro.noc.routing import build_shortest_path_tables
from repro.noc.topology import mesh
from repro.stats.occupancy import OccupancyReport


def sampled_paper_platform(**kwargs):
    config = ScenarioSpec(packets=500, **kwargs).to_platform_config()
    config.sample_buffers = True
    platform = build_platform(config)
    EmulationEngine(platform).run()
    return platform


class TestConstruction:
    def test_requires_sampling(self):
        topo = mesh(2, 2)
        net = Network(topo, build_shortest_path_tables(topo))
        with pytest.raises(ValueError, match="sample_buffers"):
            OccupancyReport(net)

    def test_one_stat_per_input_buffer(self):
        platform = sampled_paper_platform()
        report = OccupancyReport(platform.network)
        expected = sum(
            sw.config.n_inputs for sw in platform.network.switches
        )
        assert len(report.stats) == expected

    def test_empty_network_report(self):
        topo = mesh(2, 2)
        net = Network(
            topo, build_shortest_path_tables(topo), sample_buffers=True
        )
        net.run(10)
        report = OccupancyReport(net)
        assert report.peak_depth_used() == 0
        assert report.mean_pressure() == 0.0


class TestAnalysis:
    def test_hot_switch_buffers_are_hottest(self):
        platform = sampled_paper_platform()
        report = OccupancyReport(platform.network)
        # The 90% links terminate at switches 4 and 1: their input
        # buffers see the most pressure.
        hottest = report.hottest(2)
        assert {s.switch for s in hottest} <= {1, 4}

    def test_peak_bounded_by_capacity(self):
        platform = sampled_paper_platform()
        report = OccupancyReport(platform.network)
        for stat in report.stats:
            assert 0 <= stat.peak <= stat.capacity
            assert 0.0 <= stat.mean <= stat.capacity
            assert 0.0 <= stat.full_fraction <= 1.0

    def test_suggested_depth(self):
        platform = sampled_paper_platform()
        report = OccupancyReport(platform.network)
        assert report.suggested_depth() == report.peak_depth_used() + 1

    def test_pressure_increases_with_congestion(self):
        overlap = sampled_paper_platform(routing="overlap")
        disjoint = sampled_paper_platform(routing="disjoint")
        hot = OccupancyReport(overlap.network).mean_pressure()
        cold = OccupancyReport(disjoint.network).mean_pressure()
        assert hot > cold


class TestRendering:
    def test_render_contains_sections(self):
        platform = sampled_paper_platform()
        text = OccupancyReport(platform.network).render(top=3)
        assert "peak depth used" in text
        assert "hottest buffers" in text
        assert text.count("sw") >= 3
