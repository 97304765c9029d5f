"""Unit tests for the emulation engine."""

import pytest

from repro.core.config import TGSpec, PlatformConfig
from repro.core.engine import EmulationEngine, EngineResult
from repro.core.errors import EmulationError
from repro.core.platform import build_platform
from repro.experiments.spec import ScenarioSpec
from repro.stats.summary import scenario_metrics


def engine_for(packets=50, **kwargs):
    cfg = ScenarioSpec(packets=packets, **kwargs).to_platform_config()
    return EmulationEngine(build_platform(cfg))


class TestRun:
    def test_runs_to_completion(self):
        result = engine_for(packets=50).run()
        assert result.completed
        assert result.packets_sent == 200
        assert result.packets_received == 200
        assert result.cycles > 0

    def test_max_cycles_limit(self):
        result = engine_for(packets=10_000).run(max_cycles=500)
        assert result.cycles == 500
        assert not result.completed

    def test_max_packets_limit(self):
        result = engine_for(packets=10_000).run(max_packets=100)
        assert result.packets_received >= 100
        # It stopped long before the generators were done.
        assert result.packets_sent < 40_000

    def test_max_packets_not_quantised_by_check_interval(self):
        """Regression: the packet-budget stop used to live behind a
        completion-check interval, overshooting by up to the interval
        minus one delivery.  It must stop within the delivery cycle:
        the only overshoot left is same-cycle completions (at most one
        per receptor, and the paper platform has 4)."""
        result = engine_for(packets=10_000).run(max_packets=100)
        assert result.packets_received >= 100
        assert result.packets_received - 100 < 4

    def test_completed_semantics_are_honest(self):
        """A run stopped in the cycle its emission ends has its budget
        done but flits in flight: it is not completed (the
        EngineResult contract: budget exhausted *and* drained)."""
        engine = engine_for(packets=100, load=0.9)
        platform = engine.platform
        while not platform.generators_done:
            result = engine.run(max_cycles=1)
        assert result.budget_done
        assert platform.network.in_flight_flits > 0
        assert not result.drained
        assert not result.completed
        # Running on drains the fabric and completes the run.
        result = engine.run()
        assert result.budget_done and result.drained and result.completed

    def test_completed_flags_on_full_run(self):
        result = engine_for(packets=50).run()
        assert result.budget_done and result.drained and result.completed

    def test_limit_stop_reports_budget_not_done(self):
        result = engine_for(packets=10_000).run(max_cycles=500)
        assert not result.budget_done
        assert not result.completed

    def test_unbounded_run_rejected(self):
        cfg = ScenarioSpec(packets=None).to_platform_config()
        engine = EmulationEngine(build_platform(cfg))
        with pytest.raises(EmulationError, match="unbounded"):
            engine.run()

    def test_trace_generators_count_as_bounded(self):
        cfg = ScenarioSpec(
            traffic="trace",
            packets=None,
            traffic_params={"n_bursts": 5, "packets_per_burst": 2},
        ).to_platform_config()
        result = EmulationEngine(build_platform(cfg)).run()
        assert result.completed

    def test_control_module_reflects_run_state(self):
        engine = engine_for(packets=20)
        platform = engine.platform
        assert not platform.control.running
        engine.run()
        assert not platform.control.running  # stopped at the end


class TestEngineResult:
    def test_derived_quantities(self):
        result = EngineResult(
            cycles=50_000_000,
            packets_sent=100,
            packets_received=100,
            wall_seconds=2.0,
            completed=True,
        )
        assert result.emulated_seconds == pytest.approx(1.0)
        assert result.engine_cycles_per_sec == pytest.approx(25e6)
        assert result.cycles_per_packet == pytest.approx(500_000.0)

    def test_zero_guards(self):
        result = EngineResult(
            cycles=10,
            packets_sent=0,
            packets_received=0,
            wall_seconds=0.0,
            completed=False,
        )
        assert result.engine_cycles_per_sec == 0.0
        assert result.cycles_per_packet == 0.0

    def test_emulated_time_matches_modelled_50mhz(self):
        result = engine_for(packets=100).run()
        assert result.emulated_seconds == pytest.approx(
            result.cycles / 50e6
        )


class TestRepeatability:
    def test_same_seed_same_run(self):
        a = engine_for(packets=200, seed=5).run()
        b = engine_for(packets=200, seed=5).run()
        assert a.cycles == b.cycles
        assert a.packets_received == b.packets_received

    def test_different_seed_different_run(self):
        # Compare the traffic itself: two seeds can drain in the same
        # number of cycles.
        ea = engine_for(packets=200, traffic="burst", seed=5)
        eb = engine_for(packets=200, traffic="burst", seed=6)
        a = scenario_metrics(ea.platform, ea.run())
        b = scenario_metrics(eb.platform, eb.run())
        assert a["mean_latency"] != b["mean_latency"]
