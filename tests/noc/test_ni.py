"""Unit tests for the network interfaces."""

import pytest

from repro.noc.flit import Packet
from repro.noc.link import Link
from repro.noc.network import Network
from repro.noc.ni import NetworkInterface, ReassemblyBuffer
from repro.noc.routing import build_shortest_path_tables
from repro.noc.topology import mesh


class TestNetworkInterface:
    def make_ni(self, credits=4):
        ni = NetworkInterface(0)
        link = Link(delay=1, name="inj")
        ni.connect(link, credits=credits)
        return ni, link

    def test_offer_segments_into_flits(self):
        ni, _ = self.make_ni()
        ni.offer(Packet(src=0, dst=1, length=5))
        assert ni.pending_flits == 5
        assert ni.offered_packets == 1

    def test_inject_one_flit_per_cycle(self):
        ni, link = self.make_ni()
        ni.offer(Packet(src=0, dst=1, length=3))
        assert ni.inject(0)
        assert ni.pending_flits == 2
        assert link.wire_count == 1

    def test_inject_respects_credits(self):
        ni, _ = self.make_ni(credits=2)
        ni.offer(Packet(src=0, dst=1, length=4))
        assert ni.inject(0)
        assert ni.inject(1)
        assert not ni.inject(2)  # credits exhausted
        assert ni.stall_cycles == 1

    def test_credit_return_wakes_a_parked_ni(self):
        """Injection credits come back through the network's credit
        wheel and wake the NI parked on them."""
        topo = mesh(2, 1)
        net = Network(topo, build_shortest_path_tables(topo), buffer_depth=1)
        net.offer(Packet(src=0, dst=1, length=3))
        ni = net.nis[0]
        parked = False
        while not net.is_drained:
            net.step()
            parked = parked or ni._parked
        assert parked
        assert ni.stall_cycles > 0
        assert ni.injected_flits == 3
        assert net.rx[1].received_packets == 1

    def test_idle_when_empty(self):
        ni, _ = self.make_ni()
        assert ni.idle
        assert not ni.inject(0)

    def test_injected_packet_counter_on_tail(self):
        ni, _ = self.make_ni()
        ni.offer(Packet(src=0, dst=1, length=2))
        ni.inject(0)
        assert ni.injected_packets == 0
        ni.inject(1)
        assert ni.injected_packets == 1
        assert ni.injected_flits == 2

    def test_unconnected_inject_raises(self):
        ni = NetworkInterface(0)
        ni.offer(Packet(src=0, dst=1, length=1))
        with pytest.raises(RuntimeError, match="not connected"):
            ni.inject(0)

    def test_double_connect_rejected(self):
        ni, _ = self.make_ni()
        with pytest.raises(RuntimeError, match="already connected"):
            ni.connect(Link(), credits=1)

    def test_peak_queue_tracked(self):
        ni, _ = self.make_ni()
        ni.offer(Packet(src=0, dst=1, length=3))
        ni.offer(Packet(src=0, dst=1, length=3))
        assert ni.peak_queue == 6

    def test_stalled_head_flit_accumulates(self):
        ni, _ = self.make_ni(credits=0)
        p = Packet(src=0, dst=1, length=1)
        ni.offer(p)
        ni.inject(0)
        ni.inject(1)
        # The queued head flit recorded both stalled cycles.
        assert ni.stall_cycles == 2


class TestReassemblyBuffer:
    def test_reassembles_in_order_packet(self):
        done = []
        rx = ReassemblyBuffer(1)
        rx.on_packet = lambda p, now, fs: done.append((p, now))
        p = Packet(src=0, dst=1, length=3)
        flits = p.flits()
        assert rx.receive(flits[0], 10) is None
        assert rx.receive(flits[1], 11) is None
        assert rx.receive(flits[2], 12) is p
        assert done == [(p, 12)]
        assert rx.received_packets == 1
        assert rx.received_flits == 3

    def test_tolerates_interleaving(self):
        rx = ReassemblyBuffer(1)
        a = Packet(src=0, dst=1, length=2)
        b = Packet(src=2, dst=1, length=2)
        fa, fb = a.flits(), b.flits()
        rx.receive(fa[0], 0)
        rx.receive(fb[0], 1)
        assert rx.partial_packets == 2
        assert rx.receive(fa[1], 2) is a
        assert rx.receive(fb[1], 3) is b
        assert rx.partial_packets == 0

    def test_misrouted_flit_raises(self):
        rx = ReassemblyBuffer(1)
        wrong = Packet(src=0, dst=2, length=1).flits()[0]
        with pytest.raises(RuntimeError, match="routing tables"):
            rx.receive(wrong, 0)
        assert rx.misrouted_flits == 1

    def test_single_flit_packet_completes_immediately(self):
        rx = ReassemblyBuffer(1)
        p = Packet(src=0, dst=1, length=1)
        assert rx.receive(p.flits()[0], 5) is p

    def test_reset_stats(self):
        rx = ReassemblyBuffer(1)
        p = Packet(src=0, dst=1, length=1)
        rx.receive(p.flits()[0], 0)
        rx.reset_stats()
        assert rx.received_flits == 0
        assert rx.received_packets == 0
