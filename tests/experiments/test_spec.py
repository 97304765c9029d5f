"""Unit tests for ScenarioSpec and the Sweep expanders."""

import json

import pytest

from repro.core.errors import ConfigError
from repro.experiments import ScenarioSpec, Sweep


class TestScenarioSpecValidation:
    def test_defaults_valid(self):
        spec = ScenarioSpec()
        assert spec.topology == "paper"
        assert spec.routing == "auto"

    def test_unknown_traffic_rejected(self):
        with pytest.raises(ConfigError, match="traffic model"):
            ScenarioSpec(traffic="psychic")

    def test_unknown_receptors_rejected(self):
        with pytest.raises(ConfigError, match="receptor"):
            ScenarioSpec(receptors="telepathic")

    def test_unknown_topology_rejected(self):
        with pytest.raises(ConfigError, match="topology"):
            ScenarioSpec(topology="klein_bottle:4")

    def test_malformed_topology_rejected(self):
        with pytest.raises(ConfigError, match="topology"):
            ScenarioSpec(topology="mesh:3")

    @pytest.mark.parametrize(
        "topology", ["mesh:1:1", "mesh:4:4:0", "star:1", "ring:3:0", "full:2:0"]
    )
    def test_topology_below_two_nodes_rejected(self, topology):
        with pytest.raises(ConfigError, match="needs at least 2"):
            ScenarioSpec(topology=topology)

    def test_topology_object_rejected(self):
        from repro.noc.topology import mesh

        with pytest.raises(ConfigError, match="spec string"):
            ScenarioSpec(topology=mesh(2, 2))

    def test_bad_load_rejected(self):
        with pytest.raises(ConfigError, match="load"):
            ScenarioSpec(load=0.0)
        with pytest.raises(ConfigError, match="load"):
            ScenarioSpec(load=1.5)

    def test_bad_depth_rejected(self):
        with pytest.raises(ConfigError, match="buffer depth"):
            ScenarioSpec(buffer_depth=0)

    def test_store_and_forward_needs_room_for_the_longest_packet(self):
        with pytest.raises(ConfigError, match="2-flit buffers.*4-flit"):
            ScenarioSpec(
                topology="mesh:3:3",
                switching="store_and_forward",
                buffer_depth=2,
                length=4,
            )
        with pytest.raises(ConfigError, match="6-flit"):
            ScenarioSpec(
                switching="store_and_forward",
                length=2,
                traffic_params={"length": [1, 6]},
            )
        with pytest.raises(ConfigError, match="5-flit"):
            ScenarioSpec(
                switching="store_and_forward",
                traffic="trace",
                length=2,
                traffic_params={"flits_per_packet": 5},
            )
        # Whole packets that fit, and wormhole switching, are accepted.
        ScenarioSpec(switching="store_and_forward", buffer_depth=4, length=4)
        ScenarioSpec(buffer_depth=2, length=4)

    def test_bad_packets_rejected(self):
        with pytest.raises(ConfigError, match="budget"):
            ScenarioSpec(packets=0)

    def test_unbounded_packets_allowed(self):
        assert ScenarioSpec(packets=None).packets is None

    def test_bad_routing_rejected(self):
        with pytest.raises(ConfigError, match="routing"):
            ScenarioSpec(routing="scenic")

    def test_platform_spelling_of_a_paper_case_rejected(self):
        """``paper_<case>`` is how a PlatformConfig stores a case; a
        spec names the case alone, so each run has one key."""
        with pytest.raises(ConfigError, match="routing"):
            ScenarioSpec(routing="paper_overlap")

    def test_paper_case_needs_paper_topology(self):
        with pytest.raises(ConfigError, match="paper-platform"):
            ScenarioSpec(topology="mesh:3:3", routing="overlap")

    def test_bad_switching_rejected(self):
        with pytest.raises(ConfigError, match="switching"):
            ScenarioSpec(switching="teleport")

    def test_bad_arbitration_rejected(self):
        with pytest.raises(ConfigError, match="arbitration"):
            ScenarioSpec(arbitration="coin_flip")

    def test_live_objects_in_params_rejected(self):
        with pytest.raises(ConfigError, match="JSON"):
            ScenarioSpec(traffic_params={"dst": object()})

    @pytest.mark.parametrize(
        "field, bad, match",
        [
            ("load", None, "load"),
            ("load", "0.3", "load"),
            ("load", True, "load"),
            ("packets", "10", "budget"),
            ("packets", 1.5, "budget"),
            ("packets", True, "budget"),
            ("buffer_depth", "4", "buffer depth"),
            ("buffer_depth", 2.5, "buffer depth"),
            ("length", "8", "packet length"),
            ("length", 8.0, "packet length"),
            ("routing", 1, "routing"),
            ("seed", True, "seed"),
        ],
    )
    def test_wrong_typed_field_rejected(self, field, bad, match):
        with pytest.raises(ConfigError, match=match):
            ScenarioSpec(**{field: bad})

    @pytest.mark.parametrize(
        "traffic, params",
        [
            ("uniform", {"length": "x"}),
            ("uniform", {"length": 2.5}),
            ("uniform", {"length": [2, "8"]}),
            ("uniform", {"length": [2, 4, 8]}),
            ("uniform", {"length": True}),
            ("uniform", {"interval": "10"}),
            ("poisson", {"rate": "fast"}),
            ("poisson", {"load": True}),
            ("burst", {"p_on": None}),
            ("onoff", {"gap": [4]}),
            ("trace", {"n_bursts": "many"}),
        ],
    )
    def test_wrong_typed_traffic_param_rejected(self, traffic, params):
        key = next(iter(params))
        with pytest.raises(ConfigError, match=f"traffic_params '{key}'"):
            ScenarioSpec(traffic=traffic, traffic_params=params)

    @pytest.mark.parametrize(
        "traffic, params, key",
        [
            ("uniform", {"length": [2, 8], "interval": 20},
             "8e69fb4a894792fd"),
            ("poisson", {"rate": 0.01, "length": 4}, "d08c2fc6629cde80"),
            ("burst", {"p_on": 0.1, "p_off": 1}, "aa77df1e54e7a5c1"),
            ("onoff", {"gap": 12, "packets_per_burst": 4},
             "25b37b9376a2ef82"),
            ("trace", {"gap": 100, "n_bursts": 4}, "8de89af73666aca3"),
            ("uniform", {"dst": [1, 2]}, "3b637ff755f0ed3b"),
        ],
    )
    def test_well_typed_traffic_params_keep_their_key(
        self, traffic, params, key
    ):
        spec = ScenarioSpec(traffic=traffic, traffic_params=params)
        assert spec.key == key

    def test_int_load_accepted_with_its_key(self):
        spec = ScenarioSpec(load=1)
        assert spec.to_dict()["load"] == 1
        assert spec.key == "c1673787b833bf5d"


class TestScenarioSpecIdentity:
    def test_key_stable(self):
        a = ScenarioSpec(traffic="burst", load=0.3)
        b = ScenarioSpec(traffic="burst", load=0.3)
        assert a.key == b.key
        assert len(a.key) == 16
        int(a.key, 16)  # hex

    def test_key_changes_with_any_field(self):
        base = ScenarioSpec()
        keys = {base.key}
        for variant in (
            ScenarioSpec(load=0.3),
            ScenarioSpec(buffer_depth=8),
            ScenarioSpec(seed=2),
            ScenarioSpec(traffic="poisson"),
            ScenarioSpec(topology="mesh:2:2"),
            ScenarioSpec(routing="shortest"),
            ScenarioSpec(packets=999),
            ScenarioSpec(traffic_params={"interval": 20}),
        ):
            keys.add(variant.key)
        assert len(keys) == 9

    def test_traffic_params_order_irrelevant(self):
        a = ScenarioSpec(traffic_params={"interval": 20, "length": 4})
        b = ScenarioSpec(traffic_params={"length": 4, "interval": 20})
        assert a.key == b.key

    def test_round_trip_via_dict(self):
        spec = ScenarioSpec(
            topology="torus:3:3",
            traffic="onoff",
            load=0.25,
            traffic_params={"packets_per_burst": 4},
        )
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.key == spec.key

    def test_dict_is_json_serialisable(self):
        spec = ScenarioSpec(traffic_params={"interval": 100})
        json.dumps(spec.to_dict())

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="unknown"):
            ScenarioSpec.from_dict({"lod": 0.3})

    def test_stream_seeds_independent(self):
        spec = ScenarioSpec()
        other = ScenarioSpec(seed=2)
        seeds = [spec.stream_seed(i) for i in range(4)]
        assert len(set(seeds)) == 4
        assert all(s != 0 for s in seeds)
        # Across scenarios the streams differ too (hash-keyed).
        assert seeds != [other.stream_seed(i) for i in range(4)]


class TestScenarioSpecElaboration:
    @pytest.mark.parametrize(
        "topology,seed",
        [("paper", 1), ("mesh:4:4:2", 7), ("torus:4:4", 123)],
    )
    def test_tg_seeds_are_the_stream_seeds(self, topology, seed):
        spec = ScenarioSpec(topology=topology, seed=seed, packets=5)
        tgs = spec.to_platform_config().tgs
        assert [tg.seed for tg in tgs] == [
            spec.stream_seed(i) for i in range(len(tgs))
        ]

    def test_paper_spec_elaborates(self):
        config = ScenarioSpec(traffic="burst", packets=50).to_platform_config()
        assert config.topology == "paper"
        assert config.routing == "paper_overlap"
        assert len(config.tgs) == 4
        assert [tg.max_packets for tg in config.tgs] == [50] * 4
        # Derived stream seeds, not seed+i.
        assert [tg.seed for tg in config.tgs] != [1, 2, 3, 4]

    def test_paper_routing_cases_map(self):
        config = ScenarioSpec(routing="disjoint").to_platform_config()
        assert config.routing == "paper_disjoint"

    def test_generic_spec_elaborates(self):
        spec = ScenarioSpec(
            topology="mesh:2:2", traffic="poisson", load=0.1, packets=10
        )
        config = spec.to_platform_config()
        assert config.routing == "shortest"
        assert len(config.tgs) == 4
        assert len(config.trs) == 4

    def test_cyclic_fabrics_get_updown(self):
        for topo in ("ring:5", "spidergon:8"):
            config = ScenarioSpec(
                topology=topo, packets=10
            ).to_platform_config()
            assert config.routing == "updown"

    def test_generic_platforms_build_and_run(self):
        from repro.core.engine import EmulationEngine
        from repro.core.platform import build_platform

        for topo in ("ring:4", "spidergon:8", "star:3", "tree:2:2"):
            spec = ScenarioSpec(
                topology=topo, traffic="uniform", load=0.1, packets=5
            )
            platform = build_platform(spec.to_platform_config())
            result = EmulationEngine(platform).run()
            assert result.completed
            assert result.packets_received == 5 * len(platform.generators)


class TestSweepExpanders:
    def test_grid_product_order(self):
        specs = Sweep.grid(
            ScenarioSpec(), load=(0.1, 0.2), buffer_depth=(2, 4)
        )
        assert [(s.load, s.buffer_depth) for s in specs] == [
            (0.1, 2),
            (0.1, 4),
            (0.2, 2),
            (0.2, 4),
        ]

    def test_grid_without_axes_is_single(self):
        assert Sweep.grid(ScenarioSpec()) == [ScenarioSpec()]

    def test_grid_empty_axis_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            Sweep.grid(ScenarioSpec(), load=())

    def test_grid_unknown_axis_rejected(self):
        with pytest.raises(ConfigError, match="axis"):
            Sweep.grid(ScenarioSpec(), lod=(0.1,))

    def test_grid_dotted_axis_reaches_traffic_params(self):
        specs = Sweep.grid(
            ScenarioSpec(traffic="onoff"),
            **{"traffic_params.packets_per_burst": (2, 8)},
        )
        assert [dict(s.traffic_params) for s in specs] == [
            {"packets_per_burst": 2},
            {"packets_per_burst": 8},
        ]

    def test_zip_pairs_axes(self):
        specs = Sweep.zip(
            ScenarioSpec(), load=(0.1, 0.2), seed=(7, 8)
        )
        assert [(s.load, s.seed) for s in specs] == [(0.1, 7), (0.2, 8)]

    def test_zip_length_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="equal lengths"):
            Sweep.zip(ScenarioSpec(), load=(0.1, 0.2), seed=(7,))

    def test_base_accepts_mapping(self):
        specs = Sweep.grid({"traffic": "burst"}, load=(0.1,))
        assert specs[0].traffic == "burst"

    def test_each_spec_is_checked_with_all_its_axis_values(self):
        """A store-and-forward spec is valid only with the deeper
        buffer of a later axis; no half-assigned spec is checked."""
        specs = Sweep.grid(
            ScenarioSpec(length=8),
            switching=("store_and_forward",),
            buffer_depth=(8,),
        )
        assert [(s.switching, s.buffer_depth) for s in specs] == [
            ("store_and_forward", 8)
        ]

    def test_invalid_axis_value_surfaces_config_error(self):
        with pytest.raises(ConfigError, match="load"):
            Sweep.grid(ScenarioSpec(), load=(0.0,))


class TestSweepFiles:
    def test_from_dict_grid(self):
        specs = Sweep.from_dict(
            {
                "base": {"traffic": "burst", "packets": 10},
                "grid": {"load": [0.1, 0.2]},
            }
        )
        assert len(specs) == 2
        assert all(s.packets == 10 for s in specs)

    def test_from_dict_zip(self):
        specs = Sweep.from_dict(
            {"zip": {"load": [0.1, 0.2], "seed": [5, 6]}}
        )
        assert [(s.load, s.seed) for s in specs] == [(0.1, 5), (0.2, 6)]

    def test_from_dict_base_only(self):
        specs = Sweep.from_dict({"base": {"traffic": "poisson"}})
        assert len(specs) == 1

    def test_from_dict_grid_and_zip_rejected(self):
        with pytest.raises(ConfigError, match="not both"):
            Sweep.from_dict(
                {"grid": {"load": [0.1]}, "zip": {"seed": [1]}}
            )

    def test_from_dict_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="sweep file"):
            Sweep.from_dict({"axes": {"load": [0.1]}})

    def test_from_file(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(
            json.dumps({"grid": {"buffer_depth": [2, 4, 8]}})
        )
        specs = Sweep.from_file(str(path))
        assert [s.buffer_depth for s in specs] == [2, 4, 8]

    def test_from_file_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            Sweep.from_file(str(path))

    def test_from_file_non_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            Sweep.from_file(str(path))


class TestRoutingSpelling:
    def test_multipath_forms_accepted(self):
        assert ScenarioSpec(routing="multipath").routing == "multipath"
        assert ScenarioSpec(routing="multipath:3").routing == "multipath:3"

    def test_multipath_typos_rejected(self):
        for bad in ("multipath4", "multipathX", "multipath:", "multipath:0"):
            with pytest.raises(ConfigError, match="routing"):
                ScenarioSpec(routing=bad)


class TestTelemetryWindowsField:
    def test_round_trip_and_key(self):
        spec = ScenarioSpec(packets=40, telemetry_windows=500)
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.telemetry_windows == 500
        assert spec.key != ScenarioSpec(packets=40).key

    def test_none_is_omitted_from_dict(self):
        """Legacy cache keys must not change when the field is unset:
        a spec without telemetry serialises exactly as before the
        field existed."""
        spec = ScenarioSpec(packets=40)
        assert "telemetry_windows" not in spec.to_dict()
        assert spec == ScenarioSpec.from_dict(spec.to_dict())

    @pytest.mark.parametrize("bad", [0, -5, 1.5, "100", True])
    def test_bad_values_rejected(self, bad):
        with pytest.raises(ConfigError, match="telemetry_windows"):
            ScenarioSpec(telemetry_windows=bad)
