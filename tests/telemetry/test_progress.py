"""Progress meter: sampling, adaptive interval, budget fraction."""

import repro.telemetry.progress as progress_mod
from repro.core.engine import EmulationEngine
from repro.core.platform import build_platform
from repro.experiments.spec import ScenarioSpec
from repro.telemetry import (
    ProgressMeter,
    ProgressSample,
    format_progress,
)


def fresh_platform(**kwargs):
    kwargs.setdefault("packets", 80)
    spec = ScenarioSpec(topology="paper", **kwargs)
    return build_platform(spec.to_platform_config())


class FakeClock:
    """Deterministic stand-in for time.perf_counter."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestMeter:
    def test_engine_run_emits_samples_with_final(self):
        platform = fresh_platform()
        samples = []
        result = EmulationEngine(platform).run(progress=samples.append)
        assert samples, "run must emit at least the final sample"
        assert samples[-1].final
        assert all(not s.final for s in samples[:-1])
        assert samples[-1].cycle == result.cycles
        assert samples[-1].packets_received == platform.packets_received
        # Bounded generators: the budget fraction ends at 100%.
        assert samples[-1].budget_fraction == 1.0
        cycles = [s.cycle for s in samples]
        assert cycles == sorted(cycles)

    def test_interval_adapts_to_measured_speed(self, monkeypatch):
        clock = FakeClock()
        monkeypatch.setattr(progress_mod.time, "perf_counter", clock)
        platform = fresh_platform()
        meter = ProgressMeter(platform, lambda s: None)
        check = meter.start(0)
        assert check == ProgressMeter.INITIAL_CYCLES
        # 256 cycles took 0.1s: 2560 cycles per second, so half a
        # second is 1280 cycles.
        clock.now = 0.1
        check = meter.tick(256)
        assert check == 256 + 1280
        # A crawling stretch shrinks the interval down to the floor.
        clock.now = 10.1
        check = meter.tick(320)
        assert check == 320 + ProgressMeter.MIN_CYCLES

    def test_final_sample_does_not_retune(self, monkeypatch):
        clock = FakeClock()
        monkeypatch.setattr(progress_mod.time, "perf_counter", clock)
        platform = fresh_platform()
        samples = []
        meter = ProgressMeter(platform, samples.append)
        meter.start(0)
        before = meter._interval_cycles
        clock.now = 5.0
        meter.finish(100, faulted=True)
        assert meter._interval_cycles == before
        assert samples[-1].final and samples[-1].faulted
        assert samples[-1].wall_seconds == 5.0

    def test_budget_fraction_from_cycle_limit(self, monkeypatch):
        clock = FakeClock()
        monkeypatch.setattr(progress_mod.time, "perf_counter", clock)
        platform = fresh_platform()
        samples = []
        meter = ProgressMeter(
            platform, samples.append, limit_cycle=1000
        )
        meter.start(0)
        clock.now = 0.1
        meter.tick(250)
        assert samples[-1].budget_fraction == 0.25

    def test_budget_none_when_a_generator_is_unbounded(self):
        platform = fresh_platform(
            packets=None,
            traffic="trace",
            traffic_params={
                "n_bursts": 2,
                "packets_per_burst": 2,
                "gap": 50,
            },
        )
        bounded = all(
            g.max_packets is not None for g in platform.generators
        )
        meter = ProgressMeter(platform, lambda s: None)
        if bounded:
            assert meter._packet_budget is not None
        else:
            assert meter._packet_budget is None


class TestFormatting:
    def sample(self, **kwargs):
        base = dict(
            cycle=12345,
            wall_seconds=1.5,
            cycles_per_sec=8230.0,
            packets_sent=40,
            packets_received=31,
            in_flight_flits=9,
            budget_fraction=0.775,
        )
        base.update(kwargs)
        return ProgressSample(**base)

    def test_plain_line(self):
        line = format_progress(self.sample())
        assert "cycle 12,345" in line
        assert "8,230 c/s" in line
        assert "31/40 pkts" in line
        assert "9 in flight" in line
        assert "78%" in line
        assert "FAULTED" not in line and "done" not in line

    def test_flags_and_unbounded(self):
        line = format_progress(
            self.sample(budget_fraction=None, faulted=True, final=True)
        )
        assert "%" not in line
        assert line.endswith("FAULTED  done")
