"""Functional tests of the RTL and TLM baseline engines.

These engines exist for the speed comparison, but they must simulate
the *same* network correctly: all injected traffic reaches the right
receptor, flits are conserved, and packet latency behaves sensibly.
"""

import pytest

from repro.baselines.rtl import RtlPlatformSim, RtlSwitch
from repro.baselines.speed import build_packet_schedule
from repro.baselines.tlm import TlmFifo, TlmKernel, TlmPlatformSim
from repro.noc.flit import Packet
from repro.noc.routing import TableRouting, paper_routing
from repro.noc.topology import paper_flow_pairs, paper_topology


def paper_setup():
    topo = paper_topology()
    routing = paper_routing(topo, "overlap")
    assert isinstance(routing, TableRouting)
    return topo, routing


class TestTlmFifo:
    def test_request_update_semantics(self):
        fifo = TlmFifo(2)
        flit = Packet(src=0, dst=1, length=1).flits()[0]
        assert fifo.nb_write(flit)
        assert fifo.num_available() == 0  # not visible yet
        fifo.update()
        assert fifo.num_available() == 1
        assert fifo.nb_read() is flit
        assert fifo.num_available() == 0  # read requested
        fifo.update()
        assert len(fifo) == 0

    def test_capacity_respected_within_cycle(self):
        fifo = TlmFifo(1)
        f1 = Packet(src=0, dst=1, length=1).flits()[0]
        f2 = Packet(src=0, dst=1, length=1).flits()[0]
        assert fifo.nb_write(f1)
        assert not fifo.nb_write(f2)  # full this cycle
        fifo.update()
        assert not fifo.nb_write(f2)  # still full
        fifo.nb_read()
        fifo.update()
        assert fifo.nb_write(f2)

    def test_validation(self):
        with pytest.raises(ValueError):
            TlmFifo(0)


class TestTlmPlatform:
    def test_delivers_all_packets(self):
        topo, routing = paper_setup()
        schedule = build_packet_schedule(packets_per_flow=50)
        sim = TlmPlatformSim(topo, routing, schedule)
        sim.run_until_drained()
        assert sim.packets_received == 200
        assert sim.flits_received == 200 * 8

    def test_each_collector_gets_its_flow(self):
        topo, routing = paper_setup()
        schedule = build_packet_schedule(packets_per_flow=10)
        sim = TlmPlatformSim(topo, routing, schedule)
        sim.run_until_drained()
        received = {c.node: c.packets_received for c in sim.collectors}
        for _, dst in paper_flow_pairs():
            assert received[dst] == 10

    def test_drained_state(self):
        topo, routing = paper_setup()
        sim = TlmPlatformSim(
            topo, routing, build_packet_schedule(packets_per_flow=5)
        )
        assert not sim.is_drained  # injectors hold packets
        sim.run_until_drained()
        assert sim.is_drained

    def test_kernel_counts_activations(self):
        topo, routing = paper_setup()
        sim = TlmPlatformSim(
            topo, routing, build_packet_schedule(packets_per_flow=5)
        )
        sim.run(10)
        assert sim.kernel.process_activations > 0
        assert sim.cycle == 10


class TestRtlSwitchUnit:
    def test_depth_validation(self):
        from repro.baselines.eventsim import EventSimulator

        sim = EventSimulator()
        clk = sim.signal("clk", 0)
        with pytest.raises(ValueError, match="depth"):
            RtlSwitch(sim, 0, 2, 2, 4, [], clk)

    def test_single_flit_crosses_switch(self):
        from repro.baselines.eventsim import EventSimulator

        sim = EventSimulator()
        clk = sim.signal("clk", 0)
        sw = RtlSwitch(sim, 0, 1, 1, 8, [None, 0], clk)
        flit = Packet(src=0, dst=1, length=1).flits()[0]
        # Drive the input port like a link would.
        sim.drive({sw.in_valid[0]: 1, sw.in_data[0]: flit})
        sim.tick(clk)  # flit written into the FIFO
        sim.drive({sw.in_valid[0]: 0})
        sim.tick(clk)  # flit arbitrated and forwarded
        assert sw.out_valid[0].value == 1
        assert sw.out_data[0].value is flit
        assert sw.flits_forwarded == 1


class TestRtlPlatform:
    def test_delivers_all_packets(self):
        topo, routing = paper_setup()
        schedule = build_packet_schedule(packets_per_flow=15)
        sim = RtlPlatformSim(topo, routing, schedule)
        sim.run_until_drained()
        assert sim.packets_received == 60
        assert sim.flits_received == 60 * 8

    def test_each_collector_gets_its_flow(self):
        topo, routing = paper_setup()
        schedule = build_packet_schedule(packets_per_flow=5)
        sim = RtlPlatformSim(topo, routing, schedule)
        sim.run_until_drained()
        received = {c.node: c.packets_received for c in sim.collectors}
        for _, dst in paper_flow_pairs():
            assert received[dst] == 5

    def test_event_activity_is_rtl_scale(self):
        # The whole point of the RTL baseline: far more kernel events
        # per cycle than the TLM engine has transactions.
        topo, routing = paper_setup()
        schedule = build_packet_schedule(packets_per_flow=5)
        sim = RtlPlatformSim(topo, routing, schedule)
        cycles = sim.run_until_drained()
        events_per_cycle = sim.sim.total_events / cycles
        assert events_per_cycle > 20


class TestEngineAgreement:
    def test_rtl_and_tlm_agree_on_delivery(self):
        topo, routing = paper_setup()
        schedule = build_packet_schedule(packets_per_flow=8)
        rtl = RtlPlatformSim(topo, routing, schedule)
        tlm = TlmPlatformSim(topo, routing,
                             build_packet_schedule(packets_per_flow=8))
        rtl.run_until_drained()
        tlm.run_until_drained()
        assert rtl.packets_received == tlm.packets_received
        assert rtl.flits_received == tlm.flits_received

    def test_baselines_agree_with_reference_network(self):
        from repro.noc.network import Network

        topo, routing = paper_setup()
        schedule = build_packet_schedule(packets_per_flow=8)
        net = Network(topo, routing)
        for packets in schedule.values():
            for p in packets:
                # Fresh copies: the reference network mutates flits.
                net.offer(Packet(src=p.src, dst=p.dst, length=p.length,
                                 injection_cycle=p.injection_cycle))
        # Feed respecting injection cycles is handled by NI queueing:
        # all packets were offered up front, which only tightens load.
        net.drain()
        reference = sum(rx.received_packets for rx in net.rx)
        tlm = TlmPlatformSim(topo, routing,
                             build_packet_schedule(packets_per_flow=8))
        tlm.run_until_drained()
        assert tlm.packets_received == reference
