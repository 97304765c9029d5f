"""Unit tests for routing functions and table builders."""

import pytest

from repro.noc.flit import Packet
from repro.noc.routing import (
    MultiPathTableRouting,
    RoutingError,
    TableRouting,
    build_multipath_tables,
    build_shortest_path_tables,
    build_tables_from_paths,
    paper_routing,
)
from repro.noc.topology import (
    mesh,
    paper_flow_pairs,
    paper_topology,
    ring,
    torus,
)


def head_flit(src, dst, pid_salt=0):
    return Packet(src=src, dst=dst, length=1).flits()[0]


class TestTableRouting:
    def test_lookup(self):
        r = TableRouting([[None] * 5 + [2]])
        assert r.output_port(0, head_flit(0, 5)) == 2

    def test_missing_entry_raises(self):
        r = TableRouting([[None] * 5 + [2]])
        with pytest.raises(RoutingError):
            r.output_port(0, head_flit(0, 6))
        with pytest.raises(RoutingError):
            r.output_port(1, head_flit(0, 5))

    def test_ports_for(self):
        r = TableRouting([[None] * 5 + [2]])
        assert r.ports_for(0, 5) == [2]
        assert r.ports_for(0, 9) == []

    def test_entry_count(self):
        r = TableRouting([[None] * 5 + [2, 1], [None] * 5 + [0]])
        assert r.entries() == 3


class TestMultiPathRouting:
    def test_single_candidate_is_deterministic(self):
        r = MultiPathTableRouting([[None] * 5 + [3]])
        for _ in range(5):
            assert r.output_port(0, head_flit(0, 5)) == 3

    def test_choice_is_per_packet_stable(self):
        r = MultiPathTableRouting([[None] * 6], {0: {5: [1, 2]}})
        f = head_flit(0, 5)
        first = r.output_port(0, f)
        # Same packet -> same port, every time (wormhole safety).
        for _ in range(10):
            assert r.output_port(0, f) == first

    def test_spreads_over_candidates(self):
        r = MultiPathTableRouting([[None] * 6], {0: {5: [1, 2]}})
        ports = {
            r.output_port(0, head_flit(0, 5)) for _ in range(64)
        }
        assert ports == {1, 2}

    def test_empty_candidates_rejected(self):
        with pytest.raises(RoutingError):
            MultiPathTableRouting([[None] * 6], {0: {5: []}})

    def test_missing_entry_raises(self):
        r = MultiPathTableRouting([[None] * 5 + [1]])
        with pytest.raises(RoutingError):
            r.output_port(0, head_flit(0, 7))

    def test_entries_counts_all_ports(self):
        r = MultiPathTableRouting(
            [[None] * 6, [None] * 5 + [0]], {0: {5: [1, 2]}}
        )
        assert r.entries() == 3


class TestShortestPathBuilder:
    def test_all_pairs_reachable(self):
        topo = mesh(3, 2)
        r = build_shortest_path_tables(topo)
        for dst in range(topo.n_nodes):
            for s in range(topo.n_switches):
                assert r.ports_for(s, dst), (s, dst)

    def test_paths_are_minimal(self):
        topo = mesh(3, 3)
        r = build_shortest_path_tables(topo)
        # node 0 on switch 0, node 8 on switch 8: distance 4.
        flit = head_flit(0, 8)
        switch, hops = 0, 0
        while True:
            port = r.output_port(switch, flit)
            ep = topo.switch_outputs[switch][port]
            if ep.kind == "node":
                break
            switch = ep.target
            hops += 1
        assert hops == 4

    @pytest.mark.parametrize(
        "width, height, nodes", [(3, 3, 1), (4, 2, 2), (1, 4, 1)]
    )
    def test_every_route_is_minimal(self, width, height, nodes):
        # Every switch reaches every node in its Manhattan distance.
        topo = mesh(width, height, nodes_per_switch=nodes)
        r = build_shortest_path_tables(topo)
        for dst in range(topo.n_nodes):
            home = topo.node_switch[dst]
            for src in range(topo.n_switches):
                flit = head_flit(0, dst)
                switch, hops = src, 0
                while True:
                    ep = topo.switch_outputs[switch][
                        r.output_port(switch, flit)
                    ]
                    if ep.kind == "node":
                        assert ep.target == dst
                        break
                    switch = ep.target
                    hops += 1
                assert hops == (
                    abs(src % width - home % width)
                    + abs(src // width - home // width)
                )

    def test_local_delivery(self):
        topo = mesh(2, 2)
        r = build_shortest_path_tables(topo)
        port = r.output_port(0, head_flit(1, 0))
        assert topo.switch_outputs[0][port].kind == "node"

    def test_cut_off_switch_has_no_entry(self):
        # Only the 1 -> 0 link exists: switch 0 cannot reach node 1.
        from repro.noc.topology import Topology

        topo = Topology(2)
        topo.add_edge(1, 0)
        topo.attach(0)
        topo.attach(1)
        r = build_shortest_path_tables(topo)
        assert r.ports_for(0, 1) == []
        assert r.ports_for(1, 0)
        with pytest.raises(RoutingError):
            r.output_port(0, head_flit(0, 1))

    def test_subset_of_destinations(self):
        topo = mesh(2, 2)
        r = build_shortest_path_tables(topo, destinations=[3])
        assert r.ports_for(0, 3)
        assert not r.ports_for(0, 1)


class TestMultipathBuilder:
    def test_offers_two_paths_on_diagonal(self):
        topo = mesh(2, 2)
        r = build_multipath_tables(topo, max_paths=2)
        # Switch 0 toward node 3 (switch 3): both 0->1 and 0->2 minimal.
        assert len(r.ports_for(0, 3)) == 2

    def test_max_paths_one_degenerates_to_single(self):
        topo = mesh(2, 2)
        r = build_multipath_tables(topo, max_paths=1)
        for s in range(4):
            for dst in range(4):
                assert len(r.ports_for(s, dst)) == 1

    def test_max_paths_validation(self):
        with pytest.raises(RoutingError):
            build_multipath_tables(mesh(2, 2), max_paths=0)


class TestPathTableBuilder:
    def test_explicit_path(self):
        topo = paper_topology()
        r = build_tables_from_paths(topo, {(0, 7): (0, 1, 4, 5)})
        assert r.ports_for(0, 7)
        assert r.ports_for(1, 7)
        assert r.ports_for(4, 7)
        assert r.ports_for(5, 7)

    def test_wrong_start_rejected(self):
        topo = paper_topology()
        with pytest.raises(RoutingError, match="starts at"):
            build_tables_from_paths(topo, {(0, 7): (1, 4, 5)})

    def test_wrong_end_rejected(self):
        topo = paper_topology()
        with pytest.raises(RoutingError, match="ends at"):
            build_tables_from_paths(topo, {(0, 7): (0, 1, 4)})

    def test_conflicting_routes_rejected(self):
        topo = paper_topology()
        with pytest.raises(RoutingError, match="conflicting"):
            build_tables_from_paths(
                topo,
                {(0, 7): (0, 1, 4, 5), (1, 7): (2, 1, 2, 5)},
            )


class TestPaperRouting:
    @pytest.mark.parametrize("case", ["overlap", "disjoint"])
    def test_cases_route_all_flows(self, case):
        topo = paper_topology()
        r = paper_routing(topo, case)
        for src, dst in paper_flow_pairs():
            switch = topo.switch_of_node(src)
            flit = head_flit(src, dst)
            hops = 0
            while True:
                port = r.output_port(switch, flit)
                ep = topo.switch_outputs[switch][port]
                if ep.kind == "node":
                    assert ep.target == dst
                    break
                switch = ep.target
                hops += 1
                assert hops < 10
            assert hops == 3  # all paper flows are 3-hop diagonals

    def test_overlap_case_shares_middle_links(self):
        topo = paper_topology()
        r = paper_routing(topo, "overlap")
        # Flows 0->7 and 1->6 both use switch 1 -> switch 4.
        port_14 = topo.output_port_to_switch(1, 4)
        assert r.ports_for(1, 7) == [port_14]
        assert r.ports_for(1, 6) == [port_14]

    def test_disjoint_case_separates_flows(self):
        topo = paper_topology()
        r = paper_routing(topo, "disjoint")
        # Flow 0->7 goes along the top row; it never enters switch 4.
        assert not r.ports_for(4, 7)

    def test_split_case_offers_both(self):
        topo = paper_topology()
        r = paper_routing(topo, "split")
        assert len(r.ports_for(0, 7)) >= 1
        # At the divergence switch both options exist.
        assert len(r.ports_for(1, 7)) == 2

    def test_unknown_case_rejected(self):
        with pytest.raises(RoutingError, match="unknown paper routing"):
            paper_routing(paper_topology(), "zigzag")


class TestUpDownRouting:
    """build_updown_tables: deadlock-free delivery on every family."""

    def _topologies(self):
        from repro.noc.topology import (
            fully_connected,
            spidergon,
            star,
            torus,
            tree,
        )

        return [
            ring(6),
            ring(7),
            spidergon(8),
            spidergon(12),
            mesh(3, 3),
            torus(3, 3),
            tree(2, 3),
            star(4),
            fully_connected(4),
        ]

    def test_delivers_every_pair(self):
        from repro.noc.routing import build_updown_tables

        for topo in self._topologies():
            r = build_updown_tables(topo)
            for src in range(topo.n_nodes):
                for dst in range(topo.n_nodes):
                    if src == dst:
                        continue
                    switch = topo.switch_of_node(src)
                    flit = head_flit(src, dst)
                    hops = 0
                    while True:
                        port = r.output_port(switch, flit)
                        ep = topo.switch_outputs[switch][port]
                        if ep.kind == "node":
                            assert ep.target == dst, topo.name
                            break
                        switch = ep.target
                        hops += 1
                        assert hops <= 2 * topo.n_switches, topo.name

    def test_channel_dependencies_acyclic(self):
        from repro.noc.deadlock import assert_deadlock_free
        from repro.noc.routing import build_updown_tables

        for topo in self._topologies():
            r = build_updown_tables(topo)
            # Raises DeadlockError on any channel-dependency cycle;
            # notably ring/spidergon, where BFS shortest paths cycle.
            assert_deadlock_free(topo, r, list(range(topo.n_nodes)))

    def test_shortest_paths_cycle_where_updown_does_not(self):
        from repro.noc.deadlock import DeadlockError, assert_deadlock_free

        topo = ring(6)
        r = build_shortest_path_tables(topo)
        with pytest.raises(DeadlockError):
            assert_deadlock_free(topo, r, list(range(topo.n_nodes)))

    def test_routes_stay_minimal_on_trees(self):
        from repro.noc.routing import build_updown_tables
        from repro.noc.topology import tree

        # On a tree there is a single path per pair; up*/down* must
        # find exactly it (no detours through the root when the pair
        # shares a lower subtree).
        topo = tree(2, 3)
        r = build_updown_tables(topo)
        shortest = build_shortest_path_tables(topo)
        for src in range(topo.n_nodes):
            for dst in range(topo.n_nodes):
                if src != dst:
                    s = topo.switch_of_node(src)
                    assert r.ports_for(s, dst) == shortest.ports_for(s, dst)

    def test_bad_root_rejected(self):
        from repro.noc.routing import build_updown_tables

        with pytest.raises(RoutingError, match="root"):
            build_updown_tables(ring(4), root=9)

    @pytest.mark.parametrize("factory", [torus, mesh])
    def test_repair_around_dead_switch_zero_reroots(self, factory):
        # Regression: the ranking always rooted at switch 0, so with
        # every link of switch 0 avoided the repaired tables held one
        # entry and no live pair could route.
        from repro.noc.deadlock import is_deadlock_free
        from repro.noc.routing import build_updown_tables

        topo = factory(4, 4)
        avoid = {
            (a, b) for a, b, _delay in topo.switch_edges() if 0 in (a, b)
        }
        r = build_updown_tables(topo, avoid_links=avoid)
        live = [
            dst for dst in range(topo.n_nodes)
            if topo.switch_of_node(dst) != 0
        ]
        assert r.ports_for(1, 2)
        for s in range(1, topo.n_switches):
            for dst in live:
                assert r.ports_for(s, dst), (s, dst)
            assert not r.ports_for(s, 0)
        assert is_deadlock_free(topo, r, live)

    def test_live_switch_zero_stays_the_root(self):
        from repro.noc.routing import build_updown_tables

        topo = torus(4, 4)
        avoid = {(1, 2), (2, 1)}
        assert (
            build_updown_tables(topo, avoid_links=avoid).rows
            == build_updown_tables(topo, root=0, avoid_links=avoid).rows
        )
