"""Failure injection: route around a failed link without re-synthesis.

The flow's central property — software-only reconfiguration — also
covers board faults: when an inter-switch link dies, the
initialisation step rebuilds the routing tables with the failed link
excluded and re-runs on the *same* synthesised hardware.  These tests
inject a failure on one of the paper's hot middle links and verify the
repair end to end.
"""

import pytest

from repro.core.engine import EmulationEngine
from repro.core.flow import EmulationFlow
from repro.core.platform import build_platform
from repro.experiments.spec import ScenarioSpec
from repro.noc.deadlock import is_deadlock_free
from repro.noc.routing import (
    RoutingError,
    build_multipath_tables,
    build_shortest_path_tables,
)
from repro.noc.topology import mesh, paper_flow_pairs, paper_topology
from repro.stats.summary import scenario_metrics

FAILED = frozenset({(1, 4)})  # one hot middle link is dead


class TestFaultAwareTables:
    def test_tables_avoid_the_failed_link(self):
        topo = paper_topology()
        routing = build_shortest_path_tables(topo, avoid_links=FAILED)
        port_14 = topo.output_port_to_switch(1, 4)
        for dst in range(topo.n_nodes):
            assert routing.rows[1][dst] != port_14

    def test_all_flows_still_routable(self):
        topo = paper_topology()
        routing = build_shortest_path_tables(topo, avoid_links=FAILED)
        for src, dst in paper_flow_pairs():
            assert routing.ports_for(topo.switch_of_node(src), dst)

    def test_multipath_avoids_too(self):
        topo = paper_topology()
        routing = build_multipath_tables(topo, avoid_links=FAILED)
        port_14 = topo.output_port_to_switch(1, 4)
        for dst in range(topo.n_nodes):
            assert port_14 not in routing.ports_for(1, dst)

    def test_repaired_tables_stay_deadlock_free(self):
        topo = paper_topology()
        routing = build_shortest_path_tables(topo, avoid_links=FAILED)
        assert is_deadlock_free(topo, routing)

    def test_partition_detected(self):
        # Cutting both directions of every link into switch 4 of a
        # 1x2 mesh partitions the network: unreachable pairs get no
        # table entry, and the router raises on use.
        topo = mesh(2, 1)
        cut = frozenset({(0, 1), (1, 0)})
        routing = build_shortest_path_tables(topo, avoid_links=cut)
        assert not routing.ports_for(0, 1)


class TestRepairEndToEnd:
    def test_traffic_survives_a_hot_link_failure(self):
        topo = paper_topology()
        repaired = build_shortest_path_tables(topo, avoid_links=FAILED)
        config = ScenarioSpec(packets=400).to_platform_config()
        config.topology = topo
        config.routing = repaired
        platform = build_platform(config)
        result = EmulationEngine(platform).run()
        assert result.completed
        assert result.packets_received == 4 * 400
        # The dead link carried nothing.
        assert platform.network.link_between(1, 4).flits_carried == 0

    def test_repair_is_software_only_in_the_flow(self):
        """Same hardware signature before and after the repair: the
        flow reuses the cached synthesis."""
        flow = EmulationFlow()
        topo = paper_topology()
        healthy = ScenarioSpec(packets=100).to_platform_config()
        healthy.topology = topo
        healthy.routing = build_shortest_path_tables(topo)
        first = flow.run(healthy)
        assert first.resynthesized

        repaired = ScenarioSpec(packets=100).to_platform_config()
        repaired.topology = topo
        repaired.routing = build_shortest_path_tables(
            topo, avoid_links=FAILED
        )
        second = flow.run(repaired)
        assert not second.resynthesized  # tables are software
        assert second.result.completed

    def test_repair_costs_latency(self):
        """Routing around the failure lengthens some paths: the
        repaired network is correct but slower — the trade the
        platform quantifies before anyone touches hardware."""
        topo = paper_topology()

        def latency_with(routing):
            config = ScenarioSpec(packets=400).to_platform_config()
            config.topology = paper_topology()
            config.routing = routing
            platform = build_platform(config)
            result = EmulationEngine(platform).run()
            return scenario_metrics(platform, result)["mean_latency"]

        healthy = latency_with(
            build_shortest_path_tables(paper_topology())
        )
        repaired = latency_with(
            build_shortest_path_tables(
                paper_topology(), avoid_links=FAILED
            )
        )
        assert repaired >= healthy
