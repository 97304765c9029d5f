"""Pins of the route pipeline: table bytes and the work it does.

The golden digests below were recorded from the per-destination-node
builders that preceded the per-destination-switch pipeline, so any
change to a table entry, a compiled dense array or a channel
dependency fails here.  Table digests read the rows in destination
order; only the paper route cases' table digests were re-recorded
when the rows became the route store (their dicts had been filled in
path order).  The work-count tests pin the
pipeline's shape exactly: one BFS per destination *switch*, and no
per-(switch, destination) ``ports_for`` probing on a full table.
Both kinds of check are machine-independent.
"""

import hashlib
import tracemalloc

import pytest

from repro.core.config import resolve_topology_spec
from repro.core.platform import build_platform
from repro.experiments.spec import ScenarioSpec
from repro.noc import routing as routing_mod
from repro.noc.deadlock import assert_deadlock_free, channel_dependency_graph
from repro.noc.network import Network
from repro.noc.routing import (
    MultiPathTableRouting,
    TableRouting,
    XYRouting,
    build_multipath_tables,
    build_shortest_path_tables,
    build_updown_tables,
    paper_routing,
)
from repro.util import canonical_json

TOPOLOGIES = (
    "mesh:4:4", "torus:4:4", "ring:6", "spidergon:8", "tree:2:3",
    "full:4", "paper", "mesh:4:4:2",
)
ROUTINGS = ("shortest", "multipath", "updown")
PAPER_CASES = ("overlap", "disjoint", "split")


def _avoid(topo):
    """Both directions of switch 1's first inter-switch link."""
    b = topo.neighbors(1)[0]
    return frozenset({(1, b), (b, 1)})


def _routing(topo, name, avoid):
    if name == "shortest":
        return build_shortest_path_tables(topo, avoid_links=avoid)
    if name == "multipath":
        return build_multipath_tables(topo, avoid_links=avoid)
    if name == "updown":
        return build_updown_tables(topo, avoid_links=avoid)
    return paper_routing(topo, name)


def _digest(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:16]


def _table_entries(routing):
    """Per switch, its ``[dst, entry]`` pairs in destination order, read
    from the rows; a multipath entry is its candidate list."""
    if not isinstance(routing, MultiPathTableRouting):
        return [
            [s, [[dst, port] for dst, port in enumerate(row)
                 if port is not None]]
            for s, row in enumerate(routing.rows)
        ]
    tables = []
    for s, row in enumerate(routing.rows):
        several = routing.choices.get(s, {})
        tables.append([s, [
            [dst, list(several.get(dst, [port]))]
            for dst, port in enumerate(row)
            if port is not None or dst in several
        ]])
    return tables


def route_digests(topology: str, name: str, avoided: bool):
    """(tables, dense arrays, dependency edges) digests of one case."""
    topo = resolve_topology_spec(topology)
    avoid = _avoid(topo) if avoided else None
    routing = _routing(topo, name, avoid)
    tables = _table_entries(routing)
    network = Network(topo, routing)
    dense = [sw._route_dense for sw in network.switches]
    graph = channel_dependency_graph(topo, routing)
    edges = sorted(
        [a, b, c, d]
        for (a, b), deps in graph.items()
        for (c, d) in deps
    )
    return _digest(tables), _digest(dense), _digest(edges)


CASES = [
    (topology, name, avoided)
    for topology in TOPOLOGIES
    for name in ROUTINGS
    for avoided in (False, True)
] + [("paper", case, False) for case in PAPER_CASES]

#: (topology, routing, avoided) -> (tables, dense, dependency edges).
GOLDEN = {
    ('mesh:4:4', 'shortest', False): ('7a54886806c0c776', '7538a2c722ff1cb8', '70c1d0903a7ed354'),
    ('mesh:4:4', 'shortest', True): ('ab317c5248d59c9d', '5f9160028def17f5', '95eb04f5f73c2cc8'),
    ('mesh:4:4', 'multipath', False): ('93b591b1b4f75d02', 'cde250c299f3b614', '9d5f35b7a5dc7075'),
    ('mesh:4:4', 'multipath', True): ('d52f6cf86d1a317d', '4b12eae6af96c36e', '3bd8febc8c057abe'),
    ('mesh:4:4', 'updown', False): ('7a54886806c0c776', '7538a2c722ff1cb8', '70c1d0903a7ed354'),
    ('mesh:4:4', 'updown', True): ('456f65ca5ffeab75', '25dc3772cdbe541e', '718127c556228e70'),
    ('torus:4:4', 'shortest', False): ('69f8fefe94ef1691', '37d816c00f5c4124', '8d355d13dbdf4354'),
    ('torus:4:4', 'shortest', True): ('6b63945a95890b37', '934f884f1873dd07', '438088c176b2ad9e'),
    ('torus:4:4', 'multipath', False): ('1da23eab4f27d8d4', '74fe323400a86e9b', 'a222804c23c74e72'),
    ('torus:4:4', 'multipath', True): ('9a432e8ec5e0f369', '4a327ffdc8a99b87', 'baff1b020871616e'),
    ('torus:4:4', 'updown', False): ('e5c7a93358d6a426', '567441d48f90891a', 'bf603f4a6a441803'),
    ('torus:4:4', 'updown', True): ('bf59caa6ef97e15a', '00c7ca45913385d5', 'c9f268c2bf27f33a'),
    ('ring:6', 'shortest', False): ('aaf1040e9fc894db', 'c7ad8488d476f8a3', 'afcf8dbd60027fff'),
    ('ring:6', 'shortest', True): ('6f324cc957766eb9', '3e637773e37e3f1d', '112850d8b49e4ee5'),
    ('ring:6', 'multipath', False): ('140ee0c713780d9c', '8fdd7c27dac5f405', 'afcf8dbd60027fff'),
    ('ring:6', 'multipath', True): ('6bd5496103254980', '3e637773e37e3f1d', '112850d8b49e4ee5'),
    ('ring:6', 'updown', False): ('429c062553677946', '1395ccbe9d874f37', '4228011cae81c33c'),
    ('ring:6', 'updown', True): ('6f324cc957766eb9', '3e637773e37e3f1d', '112850d8b49e4ee5'),
    ('spidergon:8', 'shortest', False): ('50b69fd3f47122c6', 'e03efd1a976d29de', 'c024d1559ec7cb84'),
    ('spidergon:8', 'shortest', True): ('812caf618e8fa345', '107f4a03ae143f1a', 'dc07e8286d50c6eb'),
    ('spidergon:8', 'multipath', False): ('d289bf8894f1673b', '131809376d881b48', 'db7bed2f6366ad64'),
    ('spidergon:8', 'multipath', True): ('a30c4d774b24d014', '61e05f0b0699dab9', 'ea98163c1aecc4b6'),
    ('spidergon:8', 'updown', False): ('d067b94fcd215aa5', '6dbf6bf9658c152f', '3c59dd66b0925e7f'),
    ('spidergon:8', 'updown', True): ('c888f992fad871d7', '5524a47c26aecf6f', '119b43d6a8c0788b'),
    ('tree:2:3', 'shortest', False): ('b2c28a36e9c93860', '8f1cac08f76a8100', '4027631994a4d694'),
    ('tree:2:3', 'shortest', True): ('c9268f6086a88904', '22698c33cca3e97f', '68914b19d6595006'),
    ('tree:2:3', 'multipath', False): ('ba18abaf5e4ac92a', '8f1cac08f76a8100', '4027631994a4d694'),
    ('tree:2:3', 'multipath', True): ('eb4b49ceb1c436f4', '22698c33cca3e97f', '68914b19d6595006'),
    ('tree:2:3', 'updown', False): ('b2c28a36e9c93860', '8f1cac08f76a8100', '4027631994a4d694'),
    ('tree:2:3', 'updown', True): ('f598eddfc58e0680', '3a21cb55eb46f524', 'e9bd0cee6864f401'),
    ('full:4', 'shortest', False): ('3422709d2ac9a9bd', '46bad0d771c27534', '4f53cda18c2baa0c'),
    ('full:4', 'shortest', True): ('222211baff793491', '352a0e9f899ab638', '55fe4d73a8c365ec'),
    ('full:4', 'multipath', False): ('13322d9251cef6e5', '46bad0d771c27534', '4f53cda18c2baa0c'),
    ('full:4', 'multipath', True): ('3c3b2d53ba05a6b5', '7163a2dbf62376af', '288efddcd4f851b3'),
    ('full:4', 'updown', False): ('3422709d2ac9a9bd', '46bad0d771c27534', '4f53cda18c2baa0c'),
    ('full:4', 'updown', True): ('222211baff793491', '352a0e9f899ab638', '55fe4d73a8c365ec'),
    ('paper', 'shortest', False): ('a097bdf768b41059', '030c46845f091686', 'e9746ec089902c10'),
    ('paper', 'shortest', True): ('9f80548aefc958e5', 'bfa89f83fd2f9893', 'd42fbdd8e5186344'),
    ('paper', 'multipath', False): ('e8e04336245ff2a0', '0fa2660a89de89a3', 'cf5c5d4a3873f38c'),
    ('paper', 'multipath', True): ('651753684c744be9', '2ab2b99d907fe998', '79f981ef9e7a2be7'),
    ('paper', 'updown', False): ('a097bdf768b41059', '030c46845f091686', 'e9746ec089902c10'),
    ('paper', 'updown', True): ('bedb5fb414203ebc', 'daacaef066250da7', '88a441d849983f10'),
    ('mesh:4:4:2', 'shortest', False): ('266127c4766c80a8', '7d842d39724c2dcc', '70c1d0903a7ed354'),
    ('mesh:4:4:2', 'shortest', True): ('5ac417c89a02080c', 'b8c4722bd9a23032', '95eb04f5f73c2cc8'),
    ('mesh:4:4:2', 'multipath', False): ('4ef6d02e5f52e38b', '443bd46855a2ba2d', '9d5f35b7a5dc7075'),
    ('mesh:4:4:2', 'multipath', True): ('f73853b405871c15', '3915fba0ff29240d', '3bd8febc8c057abe'),
    ('mesh:4:4:2', 'updown', False): ('266127c4766c80a8', '7d842d39724c2dcc', '70c1d0903a7ed354'),
    ('mesh:4:4:2', 'updown', True): ('fee9bbfe421252e0', 'b9d41d100aa9124a', '718127c556228e70'),
    ('paper', 'overlap', False): ('d3a4acbdf8df86d4', 'df297f8023712a86', '8d5819ec275781f3'),
    ('paper', 'disjoint', False): ('9d2cda3715b64cbf', 'b8d709044a8b356c', '3590e0ea5b0f6fbc'),
    ('paper', 'split', False): ('81952ab127c2f2fb', 'cb61f091232dc786', 'a6c39244fe8334f6'),
}


@pytest.mark.parametrize("topology,name,avoided", CASES)
def test_route_tables_match_golden_digests(topology, name, avoided):
    assert route_digests(topology, name, avoided) == GOLDEN[
        (topology, name, avoided)
    ]


def test_golden_covers_every_case():
    assert set(GOLDEN) == set(CASES)


class TestWorkCounts:
    def test_full_shortest_table_build_never_probes_ports_for(
        self, monkeypatch
    ):
        calls = []
        original = TableRouting.ports_for

        def counting(self, switch, dst):
            calls.append((switch, dst))
            return original(self, switch, dst)

        monkeypatch.setattr(TableRouting, "ports_for", counting)
        spec = ScenarioSpec(
            topology="mesh:8:8", routing="shortest", packets=4
        )
        platform = build_platform(spec.to_platform_config())
        assert isinstance(platform.network.routing, TableRouting)
        assert calls == []

    def test_vetting_a_full_table_reads_each_row_once(self, monkeypatch):
        topo = resolve_topology_spec("mesh:8:8")
        routing = build_shortest_path_tables(topo)
        calls = {"ports_for": 0, "dense_row": []}
        ports_for = TableRouting.ports_for
        dense_row = TableRouting.dense_row

        def counting_ports_for(self, switch, dst):
            calls["ports_for"] += 1
            return ports_for(self, switch, dst)

        def counting_dense_row(self, switch, n_nodes):
            calls["dense_row"].append(switch)
            return dense_row(self, switch, n_nodes)

        monkeypatch.setattr(TableRouting, "ports_for", counting_ports_for)
        monkeypatch.setattr(TableRouting, "dense_row", counting_dense_row)
        assert_deadlock_free(topo, routing, range(topo.n_nodes))
        assert calls["ports_for"] == 0
        assert calls["dense_row"] == list(range(topo.n_switches))

    @pytest.mark.parametrize(
        "builder",
        [build_shortest_path_tables, build_multipath_tables],
    )
    def test_one_bfs_per_destination_switch(self, monkeypatch, builder):
        calls = []
        original = routing_mod._reverse_bfs_distances

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(
            routing_mod, "_reverse_bfs_distances", counting
        )
        topo = resolve_topology_spec("mesh:4:4:2")
        assert topo.n_nodes == 32
        builder(topo)
        assert len(calls) == 16


@pytest.mark.parametrize(
    "topology,make",
    [
        ("mesh:3:3", build_multipath_tables),
        ("mesh:3:3", lambda topo: XYRouting(topo, 3, 3)),
        ("paper", lambda topo: paper_routing(topo, "split")),
        ("paper", lambda topo: paper_routing(topo, "overlap")),
    ],
    ids=["multipath", "xy", "paper_split", "paper_overlap"],
)
def test_dense_rows_agree_with_ports_for(topology, make):
    """A row holds the single static port, ``None`` wherever the
    decision is a multipath choice or missing."""
    topo = resolve_topology_spec(topology)
    routing = make(topo)
    for s in range(topo.n_switches):
        row = routing.dense_row(s, topo.n_nodes)
        for dst in range(topo.n_nodes):
            ports = routing.ports_for(s, dst)
            assert row[dst] == (ports[0] if len(ports) == 1 else None)


#: The paper route cases as ``{switch: {dst: ports}}``: the tables the
#: initialisation step writes for Slide 19's two route possibilities.
PAPER_TABLES = {
    "overlap": {
        0: {4: [3], 7: [0]},
        1: {4: [0], 5: [1], 6: [2], 7: [2]},
        2: {5: [3], 6: [0]},
        3: {5: [1], 6: [3]},
        4: {4: [0], 5: [0], 6: [1], 7: [2]},
        5: {4: [1], 7: [3]},
    },
    "disjoint": {
        0: {4: [3], 6: [1], 7: [0]},
        1: {6: [0], 7: [1]},
        2: {5: [3], 6: [0], 7: [1]},
        3: {4: [0], 5: [1], 6: [3]},
        4: {4: [1], 5: [2]},
        5: {4: [1], 5: [0], 7: [3]},
    },
    "split": {
        0: {4: [3], 6: [1], 7: [0]},
        1: {4: [0], 5: [1], 6: [2, 0], 7: [2, 1]},
        2: {5: [3], 6: [0], 7: [1]},
        3: {4: [0], 5: [1], 6: [3]},
        4: {4: [0, 1], 5: [0, 2], 6: [1], 7: [2]},
        5: {4: [1], 5: [0], 7: [3]},
    },
}


@pytest.mark.parametrize("case", PAPER_CASES)
def test_paper_tables_are_the_written_routes(case):
    topo = resolve_topology_spec("paper")
    routing = paper_routing(topo, case)
    table = {}
    for s in range(topo.n_switches):
        for dst in range(topo.n_nodes):
            ports = routing.ports_for(s, dst)
            if ports:
                table.setdefault(s, {})[dst] = ports
    assert table == PAPER_TABLES[case]


@pytest.mark.parametrize(
    "topology,routing",
    [("mesh:4:4", "shortest"), ("torus:4:4", "updown"),
     ("paper", "overlap")],
)
def test_switches_index_the_routing_rows_themselves(topology, routing):
    """The rows are the one route store: no switch holds a copy."""
    spec = ScenarioSpec(topology=topology, routing=routing, packets=4)
    network = build_platform(spec.to_platform_config()).network
    rows = network.routing.rows
    assert len(rows) == len(network.switches)
    for s, sw in enumerate(network.switches):
        assert sw._route_dense is rows[s]


def test_mesh_16x16_build_stays_within_its_memory_budget():
    """Routes stored once keep a 256-switch build under 8.5 MiB of
    Python allocations (10.3 MiB when each switch copied its row out
    of per-switch dicts)."""
    config = ScenarioSpec(
        topology="mesh:16:16", packets=4
    ).to_platform_config()
    tracemalloc.start()
    try:
        platform = build_platform(config)
        allocated, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(platform.network.switches) == 256
    assert allocated <= 8.5 * 2**20
