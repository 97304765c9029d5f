"""Unit/integration tests for platform building and execution."""

import hashlib

import pytest

from repro.core.bus import make_address, split_address
from repro.core.config import (
    PlatformConfig,
    TGSpec,
    TRSpec,
)
from repro.core.engine import EmulationEngine
from repro.core.errors import ConfigError
from repro.core.platform import build_platform
from repro.experiments.spec import ScenarioSpec
from repro.noc.routing import build_shortest_path_tables
from repro.stats.congestion import network_congestion_rate
from repro.stats.summary import scenario_metrics
from repro.util import canonical_json


class TestBuildValidation:
    def test_requires_generators(self):
        with pytest.raises(ConfigError, match="no traffic generators"):
            build_platform(PlatformConfig(topology="mesh:2:2",
                                          routing="shortest"))

    def test_tg_node_must_exist(self):
        cfg = PlatformConfig(
            topology="mesh:2:2",
            routing="shortest",
            tgs=[TGSpec(node=99, params={"dst": 1, "length": 2,
                                         "interval": 4})],
        )
        with pytest.raises(ConfigError, match="does not exist"):
            build_platform(cfg)

    def test_tr_node_must_exist(self):
        cfg = PlatformConfig(
            topology="mesh:2:2",
            routing="shortest",
            tgs=[TGSpec(node=0, params={"dst": 1, "length": 2,
                                        "interval": 4})],
            trs=[TRSpec(node=50)],
        )
        with pytest.raises(ConfigError, match="does not exist"):
            build_platform(cfg)

    def test_duplicate_tg_node_rejected(self):
        params = {"dst": 1, "length": 2, "interval": 4}
        cfg = PlatformConfig(
            topology="mesh:2:2",
            routing="shortest",
            tgs=[TGSpec(node=0, params=params),
                 TGSpec(node=0, params=params)],
        )
        with pytest.raises(ConfigError, match="two traffic generators"):
            build_platform(cfg)

    def test_duplicate_tr_node_rejected(self):
        cfg = PlatformConfig(
            topology="mesh:2:2",
            routing="shortest",
            tgs=[TGSpec(node=0, params={"dst": 1, "length": 2,
                                        "interval": 4})],
            trs=[TRSpec(node=1), TRSpec(node=1)],
        )
        with pytest.raises(ConfigError, match="two receptors"):
            build_platform(cfg)

    def test_unroutable_destination_rejected(self):
        # Paper routing tables only cover the four paper flows.
        cfg = ScenarioSpec().to_platform_config()
        cfg.tgs[0].params["dst"] = 5  # not flow 0's receptor
        with pytest.raises(ConfigError, match="no entry"):
            build_platform(cfg)

    def test_one_missing_table_entry_is_named(self):
        cfg = ScenarioSpec(topology="mesh:3:3", packets=4).to_platform_config()
        routing = build_shortest_path_tables(cfg.resolve_topology())
        routing.rows[4][7] = None
        cfg.routing = routing
        with pytest.raises(ConfigError) as err:
            build_platform(cfg)
        assert str(err.value) == (
            "routing has no entry at switch 4 for destination node 7"
            " (TG on node 4)"
        )

    def test_multipath_rows_with_none_pass_the_route_check(self):
        cfg = ScenarioSpec(
            topology="paper", routing="split", packets=4
        ).to_platform_config()
        platform = build_platform(cfg)
        assert any(
            None in switch._route_dense
            for switch in platform.network.switches
        )


class TestDeviceMap:
    def test_all_devices_attached(self, small_paper_platform):
        p = small_paper_platform
        devices = p.fabric.devices()
        # 1 control + 4 TG + 4 TR.
        assert len(devices) == 9
        assert devices[0] is p.control

    def test_device_base_addresses_unique(self, small_paper_platform):
        bases = [
            d.base_address for d in small_paper_platform.fabric.devices()
        ]
        assert len(set(bases)) == len(bases)

    def test_control_probes_wired(self, small_paper_platform):
        p = small_paper_platform
        p.run(50)
        assert p.control.get_cycles() == p.cycle
        assert p.control.get_sent() == p.packets_sent

    def test_addresses_of_a_one_bus_platform_are_pinned(self):
        # Digest of every (name, base address) of mesh:8:8 (129
        # devices, all on bus 0) recorded before buses could spill.
        spec = ScenarioSpec(topology="mesh:8:8", packets=4)
        p = build_platform(spec.to_platform_config())
        rows = [[d.name, d.base_address] for d in p.fabric.devices()]
        digest = hashlib.sha256(canonical_json(rows).encode()).hexdigest()
        assert digest[:16] == "ad5d971a0f3ecf34"

    def test_more_than_one_bus_of_devices_spills(self):
        # mesh:23:23 needs 1 control + 529 TGs + 529 TRs = 1059
        # devices: more than bus 0's 1024 slots.
        spec = ScenarioSpec(topology="mesh:23:23", packets=1)
        p = build_platform(spec.to_platform_config())
        buses = [split_address(d.base_address) for d in p.fabric.devices()]
        assert len(buses) == 1059
        assert buses[1023] == (0, 1023, 0)
        assert buses[1024] == (1, 0, 0)
        assert buses[-1] == (1, 34, 0)
        assert p.tr_devices[-1].base_address == make_address(1, 34)


class TestExecution:
    def test_step_advances_cycle(self, small_paper_platform):
        p = small_paper_platform
        p.step()
        assert p.cycle == 1

    def test_traffic_flows(self, small_paper_platform):
        p = small_paper_platform
        p.run(2000)
        assert p.packets_sent > 0
        assert p.packets_received > 0

    def test_runs_to_completion(self, small_paper_platform):
        p = small_paper_platform
        p.run(12_000)
        assert p.generators_done
        assert p.is_done
        assert p.packets_received == 400  # 4 TGs x 100 packets

    def test_latency_positive_under_way(self, small_paper_platform):
        p = small_paper_platform
        metrics = scenario_metrics(p, EmulationEngine(p).run())
        assert metrics["mean_latency"] > 0
        assert metrics["max_latency"] >= metrics["mean_latency"]

    def test_congestion_rate_in_unit_interval(self, small_paper_platform):
        p = small_paper_platform
        p.run(5000)
        assert 0.0 <= network_congestion_rate(p.network) < 1.0

    def test_hot_link_loads_keys(self, small_paper_platform):
        p = small_paper_platform
        p.run(3000)
        loads = p.network.link_loads()
        assert (1, 4) in loads
        assert (4, 1) in loads

    def test_reset_statistics(self, small_paper_platform):
        p = small_paper_platform
        p.run(3000)
        p.reset_statistics()
        assert p.packets_received == 0
        assert network_congestion_rate(p.network) == 0.0


class TestTrafficFamilies:
    @pytest.mark.parametrize(
        "family", ["uniform", "burst", "poisson", "onoff"]
    )
    def test_stochastic_families_run(self, family):
        p = build_platform(
            ScenarioSpec(traffic=family, packets=50).to_platform_config()
        )
        p.run(20_000)
        assert p.packets_received == 200

    def test_trace_family_runs_to_exhaustion(self):
        p = build_platform(
            ScenarioSpec(
                traffic="trace",
                packets=None,
                traffic_params={"n_bursts": 10, "packets_per_burst": 4},
            ).to_platform_config()
        )
        p.run(30_000)
        assert p.generators_done
        assert p.packets_received == 4 * 10 * 4
