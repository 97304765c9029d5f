"""Unit tests for the channel-dependency deadlock analyzer."""

import pytest

from repro.core.config import auto_routing, resolve_topology_spec
from repro.noc.deadlock import (
    DeadlockError,
    _channel_graph,
    assert_deadlock_free,
    find_dependency_cycle,
    is_deadlock_free,
)
from repro.noc.routing import (
    TableRouting,
    build_shortest_path_tables,
    build_tables_from_paths,
    build_updown_tables,
    paper_routing,
)
from repro.noc.topology import Topology, mesh, paper_topology, ring


class TestCycleFinder:
    def test_empty_graph_is_acyclic(self):
        assert find_dependency_cycle({}) is None

    def test_simple_cycle_found(self):
        graph = {
            (0, 1): {(1, 2)},
            (1, 2): {(2, 0)},
            (2, 0): {(0, 1)},
        }
        cycle = find_dependency_cycle(graph)
        assert cycle is not None
        assert cycle[0] == cycle[-1]
        assert len(set(cycle[:-1])) == 3

    def test_dag_is_acyclic(self):
        graph = {
            (0, 1): {(1, 2), (1, 3)},
            (1, 2): {(2, 3)},
            (1, 3): set(),
            (2, 3): set(),
        }
        assert find_dependency_cycle(graph) is None

    def test_self_dependency_is_a_cycle(self):
        graph = {(0, 1): {(0, 1)}}
        assert find_dependency_cycle(graph) is not None


class TestKnownRoutings:
    def test_shortest_path_on_mesh_is_deadlock_free(self):
        # The BFS tables with lowest-port ties are not all x-then-y
        # on this mesh, but they close no dependency cycle.
        topo = mesh(3, 3)
        assert is_deadlock_free(topo, build_shortest_path_tables(topo))

    @pytest.mark.parametrize(
        "spec", ["mesh:4:4", "torus:4:5", "ring:6", "spidergon:8"]
    )
    def test_auto_routing_is_deadlock_free(self, spec):
        topo = resolve_topology_spec(spec)
        build = {
            "shortest": build_shortest_path_tables,
            "updown": build_updown_tables,
        }[auto_routing(topo)]
        assert_deadlock_free(topo, build(topo))

    def test_shortest_path_on_torus_closes_a_cycle(self):
        # Why ``auto`` picks up*/down* on cyclic fabrics.
        topo = resolve_topology_spec("torus:4:5")
        assert auto_routing(topo) == "updown"
        assert not is_deadlock_free(topo, build_shortest_path_tables(topo))

    @pytest.mark.parametrize("case", ["overlap", "disjoint", "split"])
    def test_paper_routing_cases_are_deadlock_free(self, case):
        topo = paper_topology()
        routing = paper_routing(topo, case)
        destinations = [4, 5, 6, 7]
        assert_deadlock_free(topo, routing, destinations)

    def test_cyclic_ring_routing_detected(self):
        # Force every flow clockwise around a 4-ring: the four
        # clockwise channels form a dependency cycle.
        topo = ring(4)
        paths = {
            (0, 2): (0, 1, 2),
            (1, 3): (1, 2, 3),
            (2, 0): (2, 3, 0),
            (3, 1): (3, 0, 1),
        }
        routing = build_tables_from_paths(topo, paths)
        assert not is_deadlock_free(topo, routing)
        with pytest.raises(DeadlockError, match="cycle"):
            assert_deadlock_free(topo, routing)

    def test_partial_ring_traffic_is_safe(self):
        # Only three of the four clockwise flows: chain, not cycle.
        topo = ring(4)
        paths = {
            (0, 2): (0, 1, 2),
            (1, 3): (1, 2, 3),
        }
        routing = build_tables_from_paths(topo, paths)
        assert is_deadlock_free(topo, routing, destinations=[2, 3])


class TestGraphConstruction:
    def test_single_hop_flow_has_no_dependencies(self):
        # src and dst on adjacent switches: one channel, no chain.
        topo = Topology(2)
        topo.add_edge(0, 1, bidirectional=True)
        a = topo.attach(0)
        b = topo.attach(1)
        routing = build_shortest_path_tables(topo)
        channels, succ = _channel_graph(topo, routing, [b])
        assert not succ[channels.index((0, 1))]

    def test_two_hop_flow_creates_one_dependency(self):
        topo = Topology(3)
        topo.add_edge(0, 1, bidirectional=True)
        topo.add_edge(1, 2, bidirectional=True)
        topo.attach(0)
        dst = topo.attach(2)
        routing = build_shortest_path_tables(topo)
        channels, succ = _channel_graph(topo, routing, [dst])
        assert channels.index((1, 2)) in succ[channels.index((0, 1))]

    def test_destination_subset_respected(self):
        topo = paper_topology()
        routing = paper_routing(topo, "overlap")
        channels, succ = _channel_graph(topo, routing, [7])
        # Only flow 0->7's path channels appear: 0-1-4-5.
        used = {
            channels[e]
            for c, deps in enumerate(succ)
            if deps
            for e in (c, *deps)
        }
        assert used == {(0, 1), (1, 4), (4, 5)}
