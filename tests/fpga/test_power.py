"""Unit tests for the activity-based power model."""

import pytest

from repro.core.engine import EmulationEngine
from repro.core.platform import build_platform
from repro.experiments.spec import ScenarioSpec
from repro.fpga.power import (
    DYNAMIC_MW_PER_SLICE,
    STATIC_MW_PER_SLICE,
    PowerReport,
    PowerRow,
    estimate_power,
)


def run_platform(load=0.45, packets=500, depth=4):
    platform = build_platform(
        ScenarioSpec(
            load=load, packets=packets, buffer_depth=depth
        ).to_platform_config()
    )
    EmulationEngine(platform).run()
    return platform


class TestRows:
    def test_row_total(self):
        row = PowerRow("x", 100, 0.5, static_mw=1.2, dynamic_mw=9.5)
        assert row.total_mw == pytest.approx(10.7)

    def test_report_totals_sum_rows(self):
        platform = run_platform()
        report = estimate_power(platform)
        assert report.total_mw == pytest.approx(
            sum(r.total_mw for r in report.rows)
        )
        assert report.static_mw > 0
        assert report.dynamic_mw > 0

    def test_every_component_present(self):
        platform = run_platform()
        report = estimate_power(platform)
        names = {r.name for r in report.rows}
        assert {"switch0", "switch5", "tg0", "tr4", "control"} <= names

    def test_row_lookup(self):
        report = estimate_power(run_platform())
        assert report.row_for("control").slices == 18
        with pytest.raises(KeyError):
            report.row_for("warp_core")


class TestPhysics:
    def test_idle_platform_is_static_only(self):
        platform = build_platform(
            ScenarioSpec(packets=100).to_platform_config()
        )
        for generator in platform.generators:
            generator.disable()
        platform.run(100)  # clock runs, nothing moves
        report = estimate_power(platform)
        moving = [
            r
            for r in report.rows
            if r.dynamic_mw > 0 and r.name != "control"
        ]
        assert not moving
        assert report.static_mw > 0

    def test_busy_beats_idle(self):
        busy = estimate_power(run_platform(load=0.45))
        lazy = estimate_power(run_platform(load=0.15))
        assert busy.dynamic_mw > lazy.dynamic_mw

    def test_static_power_scales_with_slices(self):
        shallow = estimate_power(run_platform(depth=2))
        deep = estimate_power(run_platform(depth=8))
        assert deep.static_mw > shallow.static_mw

    def test_activities_are_fractions(self):
        report = estimate_power(run_platform())
        for row in report.rows:
            assert 0.0 <= row.activity <= 1.0

    def test_hot_switches_burn_more(self):
        report = estimate_power(run_platform())
        # Switch 1 and 4 carry the 90% links: more dynamic power than
        # the corner switches of the same or larger size.
        hot = report.row_for("switch1").dynamic_mw
        corner = report.row_for("switch0").dynamic_mw
        assert hot > corner

    def test_constants_sane(self):
        assert 0 < STATIC_MW_PER_SLICE < DYNAMIC_MW_PER_SLICE


class TestRendering:
    def test_render_layout(self):
        report = estimate_power(run_platform())
        text = report.render()
        assert "Power estimate" in text
        assert "dynamic mW" in text
        assert "total" in text
        assert "50 MHz" in text
