"""Integration tests of the elaborated network."""

import pytest

from repro.noc import network as network_module
from repro.noc.flit import Packet
from repro.noc.network import Network
from repro.noc.routing import (
    RoutingError,
    build_shortest_path_tables,
    paper_routing,
)
from repro.noc.switch import SwitchingMode
from repro.noc.topology import mesh, paper_flow_pairs, paper_topology


def small_network(**kwargs):
    topo = mesh(2, 2)
    routing = build_shortest_path_tables(topo)
    return Network(topo, routing, **kwargs), topo


class TestElaboration:
    def test_switch_port_counts_match_topology(self):
        net, topo = small_network()
        for s in range(topo.n_switches):
            assert net.switches[s].config.n_inputs == topo.n_inputs(s)
            assert net.switches[s].config.n_outputs == topo.n_outputs(s)

    def test_all_links_created(self):
        net, topo = small_network()
        # 8 directed switch links + 4 injection + 4 ejection.
        assert len(net.links) == len(topo.switch_edges()) + 2 * topo.n_nodes

    def test_link_between(self):
        net, _ = small_network()
        assert net.link_between(0, 1) is not None
        with pytest.raises(KeyError):
            net.link_between(0, 3)


class TestDelivery:
    def test_single_packet_delivered(self):
        net, _ = small_network()
        done = []
        net.rx[3].on_packet = lambda p, now, fs: done.append((p, now))
        p = Packet(src=0, dst=3, length=4)
        net.offer(p)
        net.drain()
        assert done and done[0][0] is p
        assert net.rx[3].received_packets == 1

    @pytest.mark.parametrize("dst", [4, 99])
    def test_destination_outside_the_fabric_rejected_at_offer(self, dst):
        net, _ = small_network()
        with pytest.raises(RoutingError, match=f"to node {dst},"):
            net.offer(Packet(src=0, dst=dst, length=2))
        assert net.nis[0].pending_flits == 0
        assert net.nis[0].offered_packets == 0
        assert net.in_flight_flits == 0

    def test_flit_conservation(self):
        net, _ = small_network()
        packets = [
            Packet(src=s, dst=(s + 2) % 4, length=3) for s in range(4)
        ]
        for p in packets:
            net.offer(p)
        net.drain()
        sent = sum(ni.injected_flits for ni in net.nis)
        received = sum(rx.received_flits for rx in net.rx)
        assert sent == received == 12

    def test_local_delivery_same_switch(self):
        # mesh(2,2,nodes_per_switch=2): two nodes on one switch.
        topo = mesh(2, 2, nodes_per_switch=2)
        routing = build_shortest_path_tables(topo)
        net = Network(topo, routing)
        p = Packet(src=0, dst=1, length=2)  # both on switch 0
        net.offer(p)
        net.drain()
        assert net.rx[1].received_packets == 1

    def test_zero_load_latency_is_deterministic(self):
        net, _ = small_network()
        arrivals = []
        net.rx[3].on_packet = lambda p, now, fs: arrivals.append(now)
        net.offer(Packet(src=0, dst=3, length=1, injection_cycle=0))
        net.drain()
        first = arrivals[0]
        # Same experiment again gives the identical latency.
        net2, _ = small_network()
        arrivals2 = []
        net2.rx[3].on_packet = lambda p, now, fs: arrivals2.append(now)
        net2.offer(Packet(src=0, dst=3, length=1, injection_cycle=0))
        net2.drain()
        assert arrivals2[0] == first

    def test_longer_packets_take_longer(self):
        def latency(length):
            net, _ = small_network()
            arrivals = []
            net.rx[3].on_packet = lambda p, now, fs: arrivals.append(now)
            net.offer(Packet(src=0, dst=3, length=length))
            net.drain()
            return arrivals[0]

        assert latency(8) > latency(1)

    def test_store_and_forward_slower_than_wormhole(self):
        def latency(mode):
            topo = mesh(3, 1)
            routing = build_shortest_path_tables(topo)
            net = Network(topo, routing, buffer_depth=8, mode=mode)
            arrivals = []
            net.rx[2].on_packet = lambda p, now, fs: arrivals.append(now)
            net.offer(Packet(src=0, dst=2, length=6))
            net.drain()
            return arrivals[0]

        assert latency(SwitchingMode.STORE_AND_FORWARD) > latency(
            SwitchingMode.WORMHOLE
        )


class TestDrainAndProgress:
    def test_is_drained_initially(self):
        net, _ = small_network()
        assert net.is_drained
        assert net.in_flight_flits == 0

    def test_in_flight_accounting(self):
        net, _ = small_network()
        net.offer(Packet(src=0, dst=3, length=4))
        assert net.in_flight_flits == 4
        net.step()
        assert net.in_flight_flits == 4  # moved, not lost
        net.drain()
        assert net.in_flight_flits == 0

    def test_drain_timeout_raises(self, monkeypatch):
        net, _ = small_network()
        net.offer(Packet(src=0, dst=3, length=64))
        # Absurdly small budget: the drain must time out.
        monkeypatch.setattr(network_module, "DRAIN_CYCLES", 2)
        with pytest.raises(RuntimeError, match="drain within 2 cycles"):
            net.drain()
        assert net.cycle == 3

    def test_run_advances_cycles(self):
        net, _ = small_network()
        net.run(10)
        assert net.cycle == 10


class TestMonitoring:
    def test_link_loads_sum_up(self):
        net, _ = small_network()
        for k in range(20):
            net.offer(
                Packet(src=0, dst=3, length=2, injection_cycle=0)
            )
        net.drain()
        loads = net.link_loads()
        assert loads  # some inter-switch load observed
        assert all(0.0 <= v <= 1.0 for v in loads.values())

    def test_blocked_cycles_zero_without_contention(self):
        net, _ = small_network()
        net.offer(Packet(src=0, dst=3, length=2))
        net.drain()
        assert net.total_blocked_flit_cycles == 0

    def test_reset_stats(self):
        net, _ = small_network()
        net.offer(Packet(src=0, dst=3, length=2))
        net.drain()
        net.reset_stats()
        assert net.total_blocked_flit_cycles == 0
        assert all(l.flits_carried == 0 for l in net.links)

    def test_link_loads_use_post_reset_window(self):
        """A mid-run stats reset opens a fresh utilisation window: the
        busy fraction is measured against cycles since the reset, not
        diluted over the whole run (which once made a saturated link
        read as nearly idle after a long pre-reset warm-up)."""
        net, _ = small_network()
        # Long idle warm-up, then reset, then a busy measurement phase.
        net.run(1000)
        net.reset_stats()
        reset_cycle = net.cycle
        for _ in range(10):
            net.offer(Packet(src=0, dst=3, length=4))
        net.drain()
        loads = net.link_loads()
        window = net.cycle - reset_cycle
        busiest = max(loads.values())
        carried = max(l.flits_carried for l in net.links)
        assert carried > 0
        # 40 flits crossed the hot link inside the post-reset window.
        assert busiest == pytest.approx(carried / window)
        # The old bug: dividing by the full run length would cap the
        # reading at roughly half this value.
        assert busiest > carried / net.cycle

    def test_buffer_sampling_toggle(self):
        net, _ = small_network(sample_buffers=True)
        net.offer(Packet(src=0, dst=3, length=2))
        net.drain()
        sampled = any(
            buf.mean_occupancy > 0
            for sw in net.switches
            for buf in sw.inputs
        )
        assert sampled


class TestPaperNetwork:
    def test_all_four_flows_deliver(self):
        topo = paper_topology()
        net = Network(topo, paper_routing(topo, "overlap"))
        for src, dst in paper_flow_pairs():
            net.offer(Packet(src=src, dst=dst, length=4))
        net.drain()
        for _, dst in paper_flow_pairs():
            assert net.rx[dst].received_packets == 1

    def test_overlap_case_creates_contention(self):
        topo = paper_topology()
        net = Network(topo, paper_routing(topo, "overlap"))
        for k in range(25):
            for src, dst in paper_flow_pairs():
                net.offer(
                    Packet(src=src, dst=dst, length=4, injection_cycle=0)
                )
        net.drain()
        assert net.total_blocked_flit_cycles > 0

    def test_disjoint_case_is_contention_free(self):
        topo = paper_topology()
        net = Network(topo, paper_routing(topo, "disjoint"))
        for k in range(25):
            for src, dst in paper_flow_pairs():
                net.offer(
                    Packet(src=src, dst=dst, length=4, injection_cycle=0)
                )
        net.drain()
        assert net.total_blocked_flit_cycles == 0
