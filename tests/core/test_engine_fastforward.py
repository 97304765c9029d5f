"""Idle fast-forward and the deadlock guard fast-path.

The engine's stagnation detector must keep firing — and keep reporting
the O(1) ``in_flight_flits`` counter correctly — now that completion
checks run every cycle and quiescent stretches are skipped by idle
fast-forward.
"""

import re

import pytest

from repro.core.config import PlatformConfig, TGSpec, TRSpec
from repro.core.engine import EmulationEngine, build_engine, drive
from repro.core.errors import EmulationError, ScenarioTimeout
from repro.core.platform import build_platform
from repro.experiments.runner import run_scenario
from repro.experiments.spec import ScenarioSpec
from repro.noc.routing import build_tables_from_paths
from repro.noc.topology import ring


def wedging_ring_config(max_packets=20):
    """Clockwise 4-ring flows with tiny buffers: wedges deterministically.

    Every flow's wormhole spans two switches (6-flit packets, 2-flit
    buffers), and the clockwise channel-dependency cycle closes as soon
    as all four flows saturate, so traffic "ends" with flits stuck.
    """
    topo = ring(4)
    routing = build_tables_from_paths(
        topo,
        {
            (0, 2): (0, 1, 2),
            (1, 3): (1, 2, 3),
            (2, 0): (2, 3, 0),
            (3, 1): (3, 0, 1),
        },
    )
    params = {"length": 6, "interval": 6}
    return PlatformConfig(
        topology=topo,
        routing=routing,
        buffer_depth=2,
        check_deadlock=False,
        tgs=[
            TGSpec(
                node=src,
                params={**params, "dst": dst},
                max_packets=max_packets,
            )
            for src, dst in ((0, 2), (1, 3), (2, 0), (3, 1))
        ],
        trs=[TRSpec(node=n) for n in range(4)],
    )


class TestDeadlockGuard:
    def test_stagnation_detector_fires_with_fast_forward_active(self):
        platform = build_platform(wedging_ring_config())
        engine = EmulationEngine(platform)
        with pytest.raises(EmulationError, match="routing deadlock"):
            engine.run(stagnation_cycles=3000, fast_forward=True)

    def test_detector_reports_the_incremental_in_flight_counter(self):
        platform = build_platform(wedging_ring_config())
        engine = EmulationEngine(platform)
        with pytest.raises(EmulationError) as excinfo:
            engine.run(stagnation_cycles=3000)
        reported = int(
            re.search(r"(\d+) flits stuck", str(excinfo.value)).group(1)
        )
        network = platform.network
        assert reported == network.in_flight_flits
        # The O(1) counter the guard reads agrees with a full scan.
        assert reported == network.scan_in_flight_flits()
        assert reported > 0

    def test_detector_fires_without_fast_forward_too(self):
        platform = build_platform(wedging_ring_config())
        engine = EmulationEngine(platform)
        with pytest.raises(EmulationError, match="flits stuck"):
            engine.run(stagnation_cycles=3000, fast_forward=False)

    def test_healthy_low_load_run_does_not_trip_the_guard(self):
        """Fast-forward jumps longer than the stagnation window must
        not read as stagnation (progress clock follows quiescence)."""
        from repro.core.config import paper_platform_config

        platform = build_platform(
            paper_platform_config(
                traffic="poisson", load=0.001, max_packets=20
            )
        )
        result = EmulationEngine(platform).run(stagnation_cycles=2000)
        assert result.completed
        assert result.packets_received == 80


class TestIdleFastForward:
    def test_quiescent_platform_jumps_to_next_emission(self):
        from repro.core.config import paper_platform_config

        platform = build_platform(
            paper_platform_config(
                traffic="onoff", load=0.01, max_packets=50
            )
        )
        # Drain the first burst completely, then the fabric is idle.
        guard = 0
        while True:
            platform.step()
            guard += 1
            assert guard < 50_000
            if (
                platform.network.quiescent
                and platform.cycle >= platform._next_gen_poll - 1
            ):
                pass
            if platform.network.quiescent and platform._next_gen_poll > (
                platform.cycle + 1
            ):
                break
        before = platform.cycle
        skipped = platform.idle_fast_forward()
        assert skipped > 0
        assert platform.cycle == before + skipped
        # The jump lands exactly on the next mandatory generator poll.
        assert platform.cycle == platform._next_gen_poll

    def test_no_jump_while_flits_in_flight(self):
        from repro.core.config import paper_platform_config

        platform = build_platform(
            paper_platform_config(
                traffic="uniform", load=0.45, max_packets=100
            )
        )
        for _ in range(40):
            platform.step()
        assert not platform.network.quiescent
        assert platform.idle_fast_forward() == 0

    def test_no_jump_when_sampling_buffers(self):
        from repro.core.config import paper_platform_config

        cfg = paper_platform_config(
            traffic="onoff", load=0.01, max_packets=50
        )
        cfg.sample_buffers = True
        platform = build_platform(cfg)
        for _ in range(2000):
            platform.step()
        # Occupancy sampling must observe every idle cycle.
        assert platform.idle_fast_forward() == 0

    def test_exhausted_generators_do_not_fast_forward_forever(self):
        from repro.core.config import paper_platform_config

        platform = build_platform(
            paper_platform_config(
                traffic="uniform", load=0.45, max_packets=5
            )
        )
        result = EmulationEngine(platform).run()
        assert result.completed
        # After completion nothing remains to jump to.
        assert platform.idle_fast_forward() == 0


class TestHorizon:
    """An emission due at or past the horizon (``1 << 62``) reads as
    never: an idle run waiting for one ends instead of stepping idle
    cycles one at a time."""

    SPEC = dict(topology="mesh:2:2", traffic="poisson", seed=3)

    def test_idle_run_with_no_limit_raises(self):
        spec = ScenarioSpec(load=1e-17, packets=40, **self.SPEC)
        with pytest.raises(EmulationError, match="horizon") as info:
            run_scenario(spec, timeout=5)
        assert not isinstance(info.value, ScenarioTimeout)
        assert "TG 0 (" in str(info.value)

    def test_idle_run_jumps_to_its_cycle_limit(self):
        spec = ScenarioSpec(load=1e-100, packets=2, **self.SPEC)
        platform = build_platform(spec.to_platform_config())
        result = EmulationEngine(platform).run(
            max_cycles=10**9, max_wall_seconds=5
        )
        assert result.cycles == 10**9
        assert result.packets_sent == 0

    @pytest.mark.parametrize("every", [1, 800])
    def test_chunked_drive_raises(self, every):
        """``drive``'s chunks are bounded runs, each jumping to its
        own end; the chunk loop ends the run instead of looping."""
        spec = ScenarioSpec(load=1e-100, packets=2, **self.SPEC)
        platform, engine = build_engine(spec)
        chunks = []
        run = engine.run

        def counted(**kwargs):
            chunks.append(kwargs["max_cycles"])
            assert len(chunks) <= 3, "the chunk loop does not end"
            return run(**kwargs)

        engine.run = counted
        with pytest.raises(EmulationError, match="horizon") as info:
            drive(engine, every=every, max_wall_seconds=5)
        assert not isinstance(info.value, ScenarioTimeout)
        assert chunks == [every]
        assert platform.cycle == every
        assert f"at cycle {every} " in str(info.value)

    def test_idle_windows_run_to_the_limit(self):
        """With telemetry on, the jump lands on window boundaries: the
        bounded run still ends at its limit, every window empty."""
        spec = ScenarioSpec(
            load=1e-100, packets=2, telemetry_windows=1000, **self.SPEC
        )
        platform, engine = build_engine(spec)
        result = engine.run(max_cycles=10_500, max_wall_seconds=5)
        assert result.cycles == platform.cycle == 10_500
        assert [(w.start, w.end) for w in result.windows] == [
            (k * 1000, min(k * 1000 + 1000, 10_500)) for k in range(11)
        ]
        assert not any(w.injected_flits for w in result.windows)
