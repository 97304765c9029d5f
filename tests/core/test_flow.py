"""Unit tests for the six-step emulation flow and monitor."""

import pytest

from repro.core.engine import EmulationEngine
from repro.core.flow import EmulationFlow
from repro.core.monitor import Monitor
from repro.core.platform import build_platform
from repro.experiments.spec import ScenarioSpec


class TestFlow:
    def test_first_run_synthesises(self):
        flow = EmulationFlow()
        report = flow.run(ScenarioSpec(packets=50).to_platform_config())
        assert report.resynthesized
        assert flow.synthesis_runs == 1
        assert report.result.completed

    def test_software_change_skips_synthesis(self):
        flow = EmulationFlow()
        flow.run(ScenarioSpec(packets=50, seed=1).to_platform_config())
        report = flow.run(
            ScenarioSpec(packets=80, seed=9).to_platform_config()
        )
        assert not report.resynthesized
        assert report.hardware_steps_skipped
        assert flow.synthesis_runs == 1

    def test_routing_case_change_skips_synthesis(self):
        flow = EmulationFlow()
        flow.run(ScenarioSpec(packets=50).to_platform_config())
        report = flow.run(
            ScenarioSpec(packets=50, routing="disjoint").to_platform_config()
        )
        assert not report.resynthesized

    def test_hardware_change_resynthesises(self):
        flow = EmulationFlow()
        flow.run(ScenarioSpec(packets=50, buffer_depth=4).to_platform_config())
        report = flow.run(
            ScenarioSpec(packets=50, buffer_depth=8).to_platform_config()
        )
        assert report.resynthesized
        assert flow.synthesis_runs == 2

    def test_traffic_family_change_keeps_hardware(self):
        # Every stochastic model runs on the same TG datapath, but the
        # TG *model tag* is part of the device mix; uniform->burst is a
        # software-visible change of the same stochastic hardware only
        # if the device mix ignores it.  Our signature includes the
        # model tag, so this documents the conservative behaviour.
        flow = EmulationFlow()
        flow.run(
            ScenarioSpec(traffic="uniform", packets=50).to_platform_config()
        )
        report = flow.run(
            ScenarioSpec(traffic="burst", packets=50).to_platform_config()
        )
        assert report.resynthesized

    def test_step_timings_recorded(self):
        report = EmulationFlow().run(
            ScenarioSpec(packets=50).to_platform_config()
        )
        assert set(report.step_seconds) == {
            "1-2 hardware",
            "3 initialisation",
            "4 software",
            "5 emulation",
            "6 report",
        }
        assert all(t >= 0 for t in report.step_seconds.values())

    def test_sweep_reuses_hardware(self):
        flow = EmulationFlow()
        configs = [
            ScenarioSpec(packets=30, seed=s).to_platform_config()
            for s in range(4)
        ]
        reports = [flow.run(c) for c in configs]
        assert [r.resynthesized for r in reports] == [
            True, False, False, False,
        ]

    def test_report_text_contains_sections(self):
        report = EmulationFlow().run(
            ScenarioSpec(packets=50).to_platform_config()
        )
        assert "emulation report" in report.report_text
        assert "traffic generators:" in report.report_text
        assert "timing:" in report.report_text

    def test_synthesis_report_attached(self):
        report = EmulationFlow().run(
            ScenarioSpec(
                packets=50, receptors="stochastic"
            ).to_platform_config()
        )
        assert report.synthesis.total_slices > 0
        assert report.synthesis.fits


class TestMonitor:
    @pytest.fixture
    def run_platform(self):
        platform = build_platform(
            ScenarioSpec(packets=80).to_platform_config()
        )
        result = EmulationEngine(platform).run()
        return platform, result

    def test_device_listing(self, run_platform):
        platform, _ = run_platform
        text = Monitor(platform).device_listing()
        assert "control" in text
        assert text.count("tg ") == 4
        assert text.count("tr ") == 4

    def test_generator_section(self, run_platform):
        platform, _ = run_platform
        text = Monitor(platform).generator_section()
        assert "sent 80 packets" in text

    def test_network_section_orders_by_load(self, run_platform):
        platform, _ = run_platform
        text = Monitor(platform).network_section()
        lines = [l for l in text.splitlines() if "->" in l]
        # Hot middle links come first.
        assert "1->4" in lines[0] or "4->1" in lines[0]

    def test_timing_section(self, run_platform):
        platform, result = run_platform
        text = Monitor(platform).timing_section(result)
        assert "50 MHz" in text
        assert "cycles/sec" in text

    def test_final_report_without_result(self, run_platform):
        platform, _ = run_platform
        text = Monitor(platform).final_report()
        assert "timing:" not in text
        assert "network:" in text
