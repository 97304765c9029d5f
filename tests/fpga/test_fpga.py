"""Unit tests for the FPGA part database, cost model and timing model.

The central assertions here ARE the Table 1 reproduction: per-device
slice counts and percentages, the whole-platform total, and the 50 MHz
clock — all within the tolerances stated in EXPERIMENTS.md.
"""

import pytest

from repro.core.config import paper_platform_config
from repro.fpga.costs import (
    CONTROL_SLICES,
    TG_STOCHASTIC_SLICES,
    TG_TRACE_SLICES,
    TR_STOCHASTIC_SLICES,
    TR_TRACE_SLICES,
    control_cost,
    switch_cost,
    tg_cost,
    tg_spec_cost,
    tr_cost,
)
from repro.fpga.device import (
    FpgaPart,
    VIRTEX2PRO_PARTS,
    part_by_name,
    smallest_fitting_part,
)
from repro.fpga.synthesis import synthesize
from repro.fpga.timing import (
    achievable_clock_hz,
    critical_path_ns,
    platform_clock_hz,
)
from repro.traffic import trace


class TestPartDatabase:
    def test_family_is_ordered(self):
        sizes = [p.slices for p in VIRTEX2PRO_PARTS]
        assert sizes == sorted(sizes)

    def test_part_by_name(self):
        assert part_by_name("XC2VP20").slices == 9280
        with pytest.raises(KeyError):
            part_by_name("XC7A100T")

    def test_paper_percentages_imply_xc2vp20(self):
        # Every Table 1 percentage is consistent with 9280 slices.
        part = part_by_name("XC2VP20")
        assert 719 / part.slices == pytest.approx(0.078, abs=0.001)
        assert 652 / part.slices == pytest.approx(0.070, abs=0.001)
        assert 371 / part.slices == pytest.approx(0.040, abs=0.001)
        assert 690 / part.slices == pytest.approx(0.074, abs=0.001)
        assert 18 / part.slices == pytest.approx(0.002, abs=0.0005)
        assert 7387 / part.slices == pytest.approx(0.80, abs=0.005)

    def test_utilisation_and_fit(self):
        part = FpgaPart("toy", 100, 4, True)
        assert part.utilisation(80) == pytest.approx(0.8)
        assert part.fits(100, 4)
        assert not part.fits(101)
        assert not part.fits(10, 5)

    def test_smallest_fitting_part(self):
        assert smallest_fitting_part(1_000).name == "XC2VP4"
        assert smallest_fitting_part(9_000).name == "XC2VP20"
        assert smallest_fitting_part(999_999) is None

    def test_ppc_requirement(self):
        # XC2VP2 has no PowerPC: rejected unless explicitly allowed.
        assert smallest_fitting_part(100).name == "XC2VP4"
        assert (
            smallest_fitting_part(100, require_ppc=False).name
            == "XC2VP2"
        )


class TestDeviceCosts:
    def test_table1_calibration_constants(self):
        assert tg_cost("uniform").slices == 719
        assert tg_cost("trace").slices == 652
        assert tr_cost("stochastic").slices == 371
        assert tr_cost("tracedriven").slices == 690
        assert control_cost().slices == 18

    def test_all_stochastic_models_share_hardware(self):
        for model in ("uniform", "burst", "poisson", "onoff"):
            assert tg_cost(model).slices == TG_STOCHASTIC_SLICES

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            tg_cost("psychic")
        with pytest.raises(ValueError):
            tr_cost("psychic")

    def test_deeper_tg_queue_costs_more(self):
        assert (
            tg_cost("uniform", queue_limit=256).slices
            > tg_cost("uniform", queue_limit=64).slices
        )

    def test_trace_memory_charged_to_bram(self):
        small = tg_cost("trace", trace_records=100)
        large = tg_cost("trace", trace_records=100_000)
        assert small.bram_blocks >= 1
        assert large.bram_blocks > small.bram_blocks
        assert large.slices == small.slices  # memory is BRAM, not slices

    def test_bigger_histograms_cost_more(self):
        assert (
            tr_cost("stochastic", histogram_counters=128).slices
            > TR_STOCHASTIC_SLICES
        )
        assert (
            tr_cost("tracedriven", latency_bins=128).slices
            > TR_TRACE_SLICES
        )


class TestSwitchCost:
    def test_monotone_in_all_parameters(self):
        base = switch_cost(4, 4, 4).slices
        assert switch_cost(5, 4, 4).slices > base
        assert switch_cost(4, 5, 4).slices > base
        assert switch_cost(4, 4, 8).slices > base

    def test_validation(self):
        with pytest.raises(ValueError):
            switch_cost(0, 4, 4)

    def test_paper_switch_fabric_residual(self):
        # 4 corner switches (4x4) + 2 middle switches (3x3) at depth 4
        # must land on the Table 1 residual: 7387-4*719-4*371-18=3009.
        total = 4 * switch_cost(4, 4, 4).slices + 2 * switch_cost(
            3, 3, 4
        ).slices
        assert total == pytest.approx(3009, abs=30)


class TestPlatformCost:
    def test_paper_platform_total(self):
        cfg = paper_platform_config(receptor_kind="stochastic")
        report = synthesize(cfg)
        # Paper: 7387 slices. Accept <1% deviation.
        assert report.total_slices == pytest.approx(7387, rel=0.01)

    def test_utilisation_near_80_percent(self):
        cfg = paper_platform_config(receptor_kind="stochastic")
        report = synthesize(cfg)
        assert report.part.name == "XC2VP20"
        assert report.utilisation == pytest.approx(0.80, abs=0.01)
        assert report.fits

    def test_trace_memory_counted_without_generating_the_trace(
        self, monkeypatch
    ):
        cfg = paper_platform_config(
            traffic="trace",
            traffic_params={"n_bursts": 30, "packets_per_burst": 50},
        )

        def refuse(*args, **kwargs):
            raise AssertionError("the cost model generated a trace")

        monkeypatch.setattr(trace, "synthetic_burst_trace", refuse)
        assert tg_spec_cost(cfg.tgs[0]) == tg_cost(
            "trace", trace_records=30 * 50
        )


class TestSynthesisReport:
    def test_rows_per_device_type(self):
        cfg = paper_platform_config(receptor_kind="stochastic")
        report = synthesize(cfg)
        names = [name for name, _, _ in report.rows]
        assert "TG stochastic" in names
        assert "TR stochastic" in names
        assert "Control module" in names
        assert "Switch fabric" in names

    def test_per_type_rows_match_table1(self):
        cfg = paper_platform_config(receptor_kind="stochastic")
        report = synthesize(cfg)
        _, tg_slices, tg_pct = report.row_for("TG stochastic")
        assert tg_slices == 4 * 719
        # Per-instance percentage: 7.8% each in the paper.
        assert tg_pct / 4 == pytest.approx(7.8, abs=0.1)
        _, _, control_pct = report.row_for("Control module")
        assert control_pct == pytest.approx(0.2, abs=0.05)

    def test_trace_platform_uses_trace_rows(self):
        cfg = paper_platform_config(
            traffic="trace",
            max_packets=None,
            receptor_kind="tracedriven",
        )
        report = synthesize(cfg)
        names = [name for name, _, _ in report.rows]
        assert "TG trace driven" in names
        assert "TR trace driven" in names
        assert report.total_bram > 0

    def test_auto_part_scales_with_design(self):
        big = paper_platform_config(receptor_kind="stochastic")
        big.topology = "mesh:6:6"
        big.routing = "shortest"
        report = synthesize(big, auto_part=True)
        assert report.part.slices > 9280  # needs more than XC2VP20
        assert report.fits

    def test_overflow_reported(self):
        cfg = paper_platform_config(receptor_kind="stochastic")
        cfg.topology = "mesh:8:8"
        cfg.routing = "shortest"
        report = synthesize(cfg)  # pinned to XC2VP20: cannot fit
        assert not report.fits
        assert "DOES NOT FIT" in report.render()

    def test_render_layout(self):
        report = synthesize(
            paper_platform_config(receptor_kind="stochastic")
        )
        text = report.render()
        assert "Number of slices" in text
        assert "FPGA percentage" in text
        assert "whole platform" in text
        assert "50 MHz" in text

    def test_missing_row_raises(self):
        report = synthesize(
            paper_platform_config(receptor_kind="stochastic")
        )
        with pytest.raises(KeyError):
            report.row_for("Quantum module")


class TestTiming:
    def test_paper_platform_hits_50mhz(self):
        cfg = paper_platform_config()
        assert platform_clock_hz(cfg) == pytest.approx(50e6)

    def test_critical_path_monotone(self):
        base = critical_path_ns(4, 4, 9)
        assert critical_path_ns(8, 4, 9) > base
        assert critical_path_ns(4, 16, 9) > base
        assert critical_path_ns(4, 4, 64) > base

    def test_bigger_switches_slow_the_clock(self):
        fast = achievable_clock_hz(4, 4, 9)
        slow = achievable_clock_hz(16, 32, 9)
        assert slow < fast

    def test_grid_quantisation(self):
        clock = achievable_clock_hz(4, 4, 9)
        assert clock / 1e6 in (25, 33, 40, 50, 66, 75, 100)

    def test_below_grid_falls_back_to_raw_fmax(self):
        clock = achievable_clock_hz(4, 4, 9, grid_mhz=(400,))
        assert clock < 400e6

    def test_validation(self):
        with pytest.raises(ValueError):
            critical_path_ns(0, 4, 9)
