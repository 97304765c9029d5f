"""Tests for the monitor's occupancy section."""

import pytest

from repro.core.config import paper_platform_config
from repro.core.engine import EmulationEngine
from repro.core.monitor import Monitor
from repro.core.platform import build_platform


def run_platform(sample_buffers=False):
    config = paper_platform_config(max_packets=300)
    config.sample_buffers = sample_buffers
    platform = build_platform(config)
    result = EmulationEngine(platform).run()
    return platform, result


class TestOccupancySection:
    def test_section_renders_when_sampled(self):
        platform, _ = run_platform(sample_buffers=True)
        text = Monitor(platform).occupancy_section()
        assert "peak depth used" in text
        assert "hottest buffers" in text

    def test_section_rejected_without_sampling(self):
        platform, _ = run_platform(sample_buffers=False)
        with pytest.raises(ValueError):
            Monitor(platform).occupancy_section()

    def test_final_report_includes_occupancy_when_sampled(self):
        platform, result = run_platform(sample_buffers=True)
        text = Monitor(platform).final_report(result)
        assert "buffer occupancy:" in text

    def test_final_report_skips_occupancy_otherwise(self):
        platform, result = run_platform(sample_buffers=False)
        text = Monitor(platform).final_report(result)
        assert "buffer occupancy:" not in text


class TestFaultsSection:
    def faulted_run(self, repair=True):
        from repro.faults import FaultSchedule, link_down

        config = paper_platform_config(
            max_packets=300, routing_case="overlap", load=0.9
        )
        platform = build_platform(config)
        schedule = FaultSchedule.of(
            link_down(400, 1, 4), link_down(400, 4, 1), repair=repair
        )
        result = EmulationEngine(platform, faults=schedule).run()
        return platform, result

    def test_section_renders_events_and_drops(self):
        platform, result = self.faulted_run()
        text = Monitor(platform).faults_section(result)
        assert text.startswith("faults:")
        assert "dropped" in text
        assert "@400" in text and "link_down" in text
        assert "rerouted, " in text
        assert "throughput windows:" in text

    def test_degraded_run_flagged(self):
        platform, result = self.faulted_run(repair=False)
        if result.faults.degraded:
            text = Monitor(platform).faults_section(result)
            assert "DEGRADED" in text

    def test_final_report_embeds_faults(self):
        platform, result = self.faulted_run()
        text = Monitor(platform).final_report(result)
        assert "faults:" in text

    def test_final_report_omits_faults_without_schedule(self):
        platform, result = run_platform()
        text = Monitor(platform).final_report(result)
        assert "faults:" not in text


class TestWindowsSection:
    def windowed_run(self):
        from repro.telemetry import WindowedMetrics

        config = paper_platform_config(max_packets=300)
        platform = build_platform(config)
        telemetry = WindowedMetrics(platform, 200)
        result = EmulationEngine(platform, telemetry=telemetry).run()
        return platform, result

    def test_final_report_embeds_window_table(self):
        platform, result = self.windowed_run()
        text = Monitor(platform).final_report(result)
        assert "telemetry windows:" in text
        assert "in-flight" in text  # table header made it through

    def test_final_report_omits_windows_without_telemetry(self):
        platform, result = run_platform()
        text = Monitor(platform).final_report(result)
        assert "telemetry windows:" not in text
