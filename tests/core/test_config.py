"""Unit tests for the platform configuration and traffic-model factory."""

import pytest

from repro.core.config import (
    PlatformConfig,
    TGSpec,
    TRSpec,
    make_traffic_model,
)
from repro.core.errors import ConfigError
from repro.experiments.spec import ScenarioSpec
from repro.noc.routing import MultiPathTableRouting, TableRouting
from repro.noc.switch import SwitchingMode
from repro.noc.topology import mesh
from repro.traffic.burst import BurstTraffic
from repro.traffic.onoff import OnOffTraffic
from repro.traffic.poisson import PoissonTraffic
from repro.traffic.trace import TraceTraffic, synthetic_burst_trace
from repro.traffic.uniform import UniformTraffic


class TestSpecs:
    def test_tg_spec_validation(self):
        with pytest.raises(ConfigError):
            TGSpec(node=0, model="fractal")
        with pytest.raises(ConfigError):
            TGSpec(node=-1)

    def test_tr_spec_validation(self):
        with pytest.raises(ConfigError):
            TRSpec(node=0, kind="quantum")
        with pytest.raises(ConfigError):
            TRSpec(node=-2)


class TestTopologyResolution:
    def test_paper(self):
        cfg = PlatformConfig(topology="paper")
        assert cfg.resolve_topology().name == "paper6"

    def test_mesh_spec(self):
        cfg = PlatformConfig(topology="mesh:3:2")
        topo = cfg.resolve_topology()
        assert topo.n_switches == 6

    def test_torus_and_ring_specs(self):
        assert PlatformConfig(
            topology="torus:3:3"
        ).resolve_topology().n_switches == 9
        assert PlatformConfig(
            topology="ring:5"
        ).resolve_topology().n_switches == 5

    def test_topology_object_passthrough(self):
        topo = mesh(2, 2)
        assert PlatformConfig(topology=topo).resolve_topology() is topo

    def test_malformed_spec(self):
        with pytest.raises(ConfigError):
            PlatformConfig(topology="mesh:x:y").resolve_topology()
        with pytest.raises(ConfigError):
            PlatformConfig(topology="hypercube:4").resolve_topology()


class TestRoutingResolution:
    def test_paper_cases(self):
        cfg = PlatformConfig(topology="paper", routing="paper_overlap")
        r = cfg.resolve_routing(cfg.resolve_topology())
        assert isinstance(r, TableRouting)

    def test_paper_routing_on_other_topology_rejected(self):
        cfg = PlatformConfig(topology="mesh:2:2", routing="paper_overlap")
        with pytest.raises(ConfigError, match="paper"):
            cfg.resolve_routing(cfg.resolve_topology())

    def test_shortest(self):
        cfg = PlatformConfig(topology="mesh:2:2", routing="shortest")
        assert isinstance(
            cfg.resolve_routing(cfg.resolve_topology()), TableRouting
        )

    def test_multipath_with_width(self):
        cfg = PlatformConfig(topology="mesh:2:2", routing="multipath:2")
        r = cfg.resolve_routing(cfg.resolve_topology())
        assert isinstance(r, MultiPathTableRouting)

    def test_unknown_routing(self):
        cfg = PlatformConfig(topology="mesh:2:2", routing="astrology")
        with pytest.raises(ConfigError):
            cfg.resolve_routing(cfg.resolve_topology())

    @pytest.mark.parametrize(
        "routing", ["auto", "overlap", "paper_shortest", "paper_auto"]
    )
    def test_spec_only_spellings_rejected(self, routing):
        """A platform stores ``paper_<case>`` or a table routing; spec
        elaboration resolves ``auto`` before a platform holds it."""
        cfg = PlatformConfig(topology="paper", routing=routing)
        with pytest.raises(ConfigError, match="platform routing"):
            cfg.resolve_routing(cfg.resolve_topology())


class TestAutoRouting:
    """routing="auto" must pick a deadlock-free family default."""

    @pytest.mark.parametrize(
        "topology, expected",
        [
            ("mesh:3:3", "shortest"),
            ("tree:2:3", "shortest"),
            ("ring:6", "updown"),
            ("spidergon:8", "updown"),
            # Torus wrap-around channels are cyclic too: BFS shortest
            # paths pass the channel-dependency check only on the
            # smallest grids, so "auto" must not pick them.
            ("torus:3:3", "updown"),
            ("torus:5:5", "updown"),
        ],
    )
    def test_family_defaults(self, topology, expected):
        cfg = ScenarioSpec(topology=topology, packets=10).to_platform_config()
        assert cfg.routing == expected

    def test_torus_auto_builds_deadlock_free(self):
        """Regression: torus:5:5 with routing="auto" used to resolve to
        shortest paths, whose channel-dependency graph cycles — the
        platform build refused the tables with a ConfigError."""
        from repro.core.platform import build_platform

        platform = build_platform(
            ScenarioSpec(topology="torus:5:5", packets=5).to_platform_config()
        )
        assert platform.topology.name == "torus5x5"

    def test_torus_shortest_still_refused_at_build(self):
        """The channel-dependency check keeps vetting explicit specs."""
        from repro.core.platform import build_platform

        cfg = ScenarioSpec(
            topology="torus:5:5", routing="shortest", packets=5
        ).to_platform_config()
        with pytest.raises(ConfigError, match="dependency cycle"):
            build_platform(cfg)


class TestSignatures:
    def test_software_change_keeps_hardware_signature(self):
        a = ScenarioSpec(packets=100, seed=1).to_platform_config()
        b = ScenarioSpec(packets=9_999, seed=42).to_platform_config()
        assert a.hardware_signature() == b.hardware_signature()

    def test_buffer_depth_changes_hardware_signature(self):
        a = ScenarioSpec(buffer_depth=4).to_platform_config()
        b = ScenarioSpec(buffer_depth=8).to_platform_config()
        assert a.hardware_signature() != b.hardware_signature()

    def test_routing_case_is_software(self):
        a = ScenarioSpec(routing="overlap").to_platform_config()
        b = ScenarioSpec(routing="disjoint").to_platform_config()
        assert a.hardware_signature() == b.hardware_signature()

    def test_receptor_kind_changes_hardware(self):
        a = ScenarioSpec(receptors="stochastic").to_platform_config()
        b = ScenarioSpec(receptors="tracedriven").to_platform_config()
        assert a.hardware_signature() != b.hardware_signature()

    def test_with_software_copies(self):
        a = ScenarioSpec().to_platform_config()
        b = a.with_software(name="other")
        assert b.name == "other"
        assert a.name != "other"

    def test_validation(self):
        with pytest.raises(ConfigError):
            PlatformConfig(buffer_depth=0)
        with pytest.raises(ConfigError):
            PlatformConfig(switching="teleport")

    def test_switching_string_accepted(self):
        cfg = PlatformConfig(switching="store_and_forward")
        assert cfg.switching is SwitchingMode.STORE_AND_FORWARD


class TestTrafficModelFactory:
    def test_uniform_by_load(self):
        spec = TGSpec(
            node=0, model="uniform",
            params={"dst": 1, "length": 8, "load": 0.45},
        )
        model = make_traffic_model(spec)
        assert isinstance(model, UniformTraffic)
        assert model.expected_load() == pytest.approx(8 / 18)

    def test_uniform_by_interval(self):
        spec = TGSpec(
            node=0, model="uniform",
            params={"dst": 1, "length": 4, "interval": 10},
        )
        assert make_traffic_model(spec).expected_load() == pytest.approx(
            0.4
        )

    def test_burst_by_probabilities(self):
        spec = TGSpec(
            node=0, model="burst",
            params={"dst": 1, "length": 4, "p_on": 0.2, "p_off": 0.3},
        )
        model = make_traffic_model(spec)
        assert isinstance(model, BurstTraffic)
        assert model.p_on == 0.2

    def test_burst_by_load(self):
        spec = TGSpec(
            node=0, model="burst",
            params={
                "dst": 1, "length": 4, "load": 0.45,
                "mean_burst_packets": 8,
            },
        )
        model = make_traffic_model(spec)
        assert model.expected_load() == pytest.approx(0.45)

    def test_poisson(self):
        spec = TGSpec(
            node=0, model="poisson",
            params={"dst": 1, "length": 4, "load": 0.3},
        )
        assert isinstance(make_traffic_model(spec), PoissonTraffic)

    def test_onoff(self):
        spec = TGSpec(
            node=0, model="onoff",
            params={
                "dst": 1, "length": 4, "packets_per_burst": 4,
                "gap": 16,
            },
        )
        assert isinstance(make_traffic_model(spec), OnOffTraffic)

    def test_trace_synthetic(self):
        spec = TGSpec(
            node=0, model="trace",
            params={
                "dst": 1, "n_bursts": 3, "packets_per_burst": 2,
                "flits_per_packet": 4, "gap": 0,
            },
        )
        model = make_traffic_model(spec)
        assert isinstance(model, TraceTraffic)
        assert len(model.trace) == 6

    def test_trace_object(self):
        trace = synthetic_burst_trace(2, 2, 2, 0, dst=1)
        spec = TGSpec(node=0, model="trace", params={"trace": trace})
        assert make_traffic_model(spec).trace is trace

    def test_missing_parameters_reported(self):
        with pytest.raises(ConfigError, match="missing"):
            make_traffic_model(
                TGSpec(node=0, model="uniform", params={"dst": 1})
            )
        with pytest.raises(ConfigError):
            make_traffic_model(TGSpec(node=0, model="trace", params={}))

    def test_missing_dst_reported(self):
        with pytest.raises(ConfigError, match="dst"):
            make_traffic_model(
                TGSpec(node=0, model="uniform", params={"length": 4})
            )

    def test_dst_list_becomes_uniform_chooser(self):
        spec = TGSpec(
            node=0, model="uniform",
            params={"dst": [1, 2], "length": 2, "interval": 4},
        )
        model = make_traffic_model(spec)
        assert set(model.destination.destinations()) == {1, 2}


class TestPaperConfig:
    def test_default_shape(self):
        cfg = ScenarioSpec().to_platform_config()
        assert len(cfg.tgs) == 4
        assert len(cfg.trs) == 4
        assert cfg.routing == "paper_overlap"
        assert {tg.node for tg in cfg.tgs} == {0, 1, 2, 3}
        assert {tr.node for tr in cfg.trs} == {4, 5, 6, 7}

    def test_flows_match_paper_pairs(self):
        from repro.noc.topology import paper_flow_pairs

        cfg = ScenarioSpec().to_platform_config()
        pairs = {(tg.node, tg.params["dst"]) for tg in cfg.tgs}
        assert pairs == set(paper_flow_pairs())

    def test_traffic_families(self):
        for family in ("uniform", "burst", "poisson", "onoff", "trace"):
            cfg = ScenarioSpec(traffic=family, packets=10).to_platform_config()
            assert all(tg.model == family for tg in cfg.tgs)

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioSpec(traffic="telepathy")

    def test_traffic_params_override(self):
        cfg = ScenarioSpec(
            traffic="burst", traffic_params={"mean_burst_packets": 16}
        ).to_platform_config()
        assert cfg.tgs[0].params["mean_burst_packets"] == 16

    def test_distinct_seeds_per_generator(self):
        cfg = ScenarioSpec(seed=10).to_platform_config()
        assert len({tg.seed for tg in cfg.tgs}) == 4
