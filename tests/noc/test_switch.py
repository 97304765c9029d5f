"""Unit tests for the parameterisable switch."""

import pytest

from repro.noc.flit import Flit, Packet
from repro.noc.network import Network
from repro.noc.routing import TableRouting, build_shortest_path_tables
from repro.noc.switch import Switch, SwitchConfig, SwitchingMode
from repro.noc.topology import mesh


class Clock:
    """The clock a network installs on its switches: the cycle being
    processed during a traverse, the next unprocessed one between
    traverses (parked inputs settle their stalls against it)."""

    def __init__(self):
        self.cycle = 0

    def __call__(self):
        return self.cycle


def traverse(sw, now):
    """One cycle of a standalone switch, advancing its clock."""
    sw._clock.cycle = now
    moved = sw.traverse(now)
    sw._clock.cycle = now + 1
    return moved


def make_switch(
    n_in=2,
    n_out=2,
    depth=4,
    table=None,
    arbitration="round_robin",
    mode=SwitchingMode.WORMHOLE,
):
    """A switch whose outputs capture sent flits into per-port lists."""
    routing = TableRouting([table or [0, 1]])
    sw = Switch(
        0,
        SwitchConfig(
            n_inputs=n_in,
            n_outputs=n_out,
            buffer_depth=depth,
            arbitration=arbitration,
            mode=mode,
        ),
        routing,
    )
    sw._clock = Clock()
    sent = [[] for _ in range(n_out)]
    for port in range(n_out):
        sw.connect_output(
            port,
            lambda flit, now, _p=port: sent[_p].append((flit, now)),
            credits=8,
        )
    return sw, sent


def packet_flits(dst, length=3, src=0):
    return Packet(src=src, dst=dst, length=length).flits()


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SwitchConfig(n_inputs=0, n_outputs=1)
        with pytest.raises(ValueError):
            SwitchConfig(n_inputs=1, n_outputs=0)
        with pytest.raises(ValueError):
            SwitchConfig(n_inputs=1, n_outputs=1, buffer_depth=0)

    def test_mode_accepts_string(self):
        cfg = SwitchConfig(n_inputs=1, n_outputs=1, mode="wormhole")
        assert cfg.mode is SwitchingMode.WORMHOLE


class TestWiring:
    def test_double_connect_rejected(self):
        sw, _ = make_switch()
        with pytest.raises(RuntimeError, match="already connected"):
            sw.connect_output(0, lambda f, n: None, credits=1)

    def test_unwired_detected(self):
        routing = TableRouting([[0]])
        sw = Switch(0, SwitchConfig(n_inputs=1, n_outputs=1), routing)
        with pytest.raises(RuntimeError, match="not connected"):
            sw.check_wired()

    def test_double_input_hook_rejected(self):
        sw, _ = make_switch()
        sw._connect_input_credit(0, 1, (None, None))
        with pytest.raises(RuntimeError, match="already has"):
            sw._connect_input_credit(0, 1, (None, None))


class TestBasicForwarding:
    def test_single_packet_flows_through(self):
        sw, sent = make_switch()
        flits = packet_flits(dst=0)
        for f in flits:
            sw.receive(0, f)
        for now in range(3):
            traverse(sw, now)
        assert [f for f, _ in sent[0]] == flits
        assert sw.flits_forwarded == 3

    def test_one_flit_per_output_per_cycle(self):
        sw, sent = make_switch()
        for f in packet_flits(dst=0):
            sw.receive(0, f)
        traverse(sw, 0)
        assert len(sent[0]) == 1

    def test_routing_by_destination(self):
        sw, sent = make_switch()
        f0 = packet_flits(dst=0, length=1)[0]
        f1 = packet_flits(dst=1, length=1)[0]
        sw.receive(0, f0)
        traverse(sw, 0)
        sw.receive(0, f1)
        traverse(sw, 1)
        assert sent[0][0][0] is f0
        assert sent[1][0][0] is f1

    def test_parallel_outputs_same_cycle(self):
        sw, sent = make_switch()
        sw.receive(0, packet_flits(dst=0, length=1)[0])
        sw.receive(1, packet_flits(dst=1, length=1, src=1)[0])
        moved = traverse(sw, 0)
        assert moved == 2
        assert len(sent[0]) == 1 and len(sent[1]) == 1


class TestWormhole:
    def test_channel_locked_until_tail(self):
        sw, sent = make_switch()
        a = packet_flits(dst=0, length=3, src=0)
        b = packet_flits(dst=0, length=3, src=1)
        for f in a:
            sw.receive(0, f)
        for f in b:
            sw.receive(1, f)
        for now in range(6):
            traverse(sw, now)
        order = [f.packet.pid for f, _ in sent[0]]
        # One packet's flits must be contiguous (no interleaving).
        assert order == sorted(order, key=lambda pid: order.index(pid))
        assert order[0:3] == [order[0]] * 3
        assert order[3:6] == [order[3]] * 3

    def test_blocked_flits_accumulate_stalls(self):
        sw, sent = make_switch()
        a = packet_flits(dst=0, length=2, src=0)
        b = packet_flits(dst=0, length=2, src=1)
        for f in a:
            sw.receive(0, f)
        for f in b:
            sw.receive(1, f)
        for now in range(4):
            traverse(sw, now)
        loser_head = b[0] if sent[0][0][0] is a[0] else a[0]
        assert loser_head.stall_cycles > 0
        assert sw.blocked_flit_cycles > 0

    def test_credit_exhaustion_blocks(self):
        routing = TableRouting([[0]])
        sw = Switch(
            0, SwitchConfig(n_inputs=1, n_outputs=1), routing
        )
        sw._clock = Clock()
        sent = []
        sw.connect_output(
            0, lambda f, n: sent.append(f), credits=1
        )
        flits = packet_flits(dst=0, length=3)
        for f in flits:
            sw.receive(0, f)
        traverse(sw, 0)
        traverse(sw, 1)  # no credit left: must stall (and park)
        assert len(sent) == 1
        assert sw.parked_inputs == (0,)
        assert sw.credit_stall_cycles == 1

    def test_credit_return_wakes_the_starved_input(self):
        """Credits come back through the network's credit wheel: an
        input parked on a starved output rejoins the scan once the
        downstream buffer frees a slot."""
        topo = mesh(3, 1)
        net = Network(topo, build_shortest_path_tables(topo), buffer_depth=1)
        net.offer(Packet(src=0, dst=2, length=4))
        net.offer(Packet(src=1, dst=2, length=4))
        sw = net.switches[0]
        starved = False
        while not net.is_drained:
            net.step()
            starved = starved or any(
                sw._in_park_credit[i] for i in sw.parked_inputs
            )
        assert starved
        assert sw.credit_stall_cycles > 0
        assert sw.parked_inputs == ()
        assert net.rx[2].received_packets == 2

    def test_infinite_credit_output_never_stalls(self):
        routing = TableRouting([[0]])
        sw = Switch(0, SwitchConfig(n_inputs=1, n_outputs=1), routing)
        sw._clock = Clock()
        sent = []
        sw.connect_output(0, lambda f, n: sent.append(f), credits=None)
        for f in packet_flits(dst=0, length=4, src=0):
            sw.receive(0, f)
        for now in range(4):
            traverse(sw, now)
        assert len(sent) == 4
        assert sw.credit_stall_cycles == 0

    def test_non_head_without_route_is_protocol_error(self):
        sw, _ = make_switch()
        body = packet_flits(dst=0, length=3)[1]
        sw.receive(0, body)
        with pytest.raises(RuntimeError, match="non-head"):
            traverse(sw, 0)

    def test_input_pop_hook_fires(self):
        """A pop schedules the input's upstream credit: its wheel entry
        lands ``delay`` cycles out in the credit wheel."""
        sw, _ = make_switch()
        sw._cwheel = [[] for _ in range(3)]
        sw._wheel_size = 3
        sw._connect_input_credit(0, 2, ("credit", 0))
        sw.receive(0, packet_flits(dst=0, length=1)[0])
        traverse(sw, 7)
        assert sw._cwheel[9 % 3] == [("credit", 0)]

    def test_blocked_input_parks_and_stalls_settle(self):
        """A lock-blocked input parks; its stall cycles settle on read
        and on the wake at tail release."""
        sw, sent = make_switch()
        a = packet_flits(dst=0, length=4, src=0)
        b = packet_flits(dst=0, length=1, src=1)
        for f in a:
            sw.receive(0, f)
        traverse(sw, 0)  # a's head takes the channel
        sw.receive(1, b[0])
        traverse(sw, 1)  # b blocks on the lock and parks
        assert sw.parked_inputs == (1,)
        traverse(sw, 2)
        assert sw.blocked_flit_cycles == 2  # cycles 1-2, one settled
        traverse(sw, 3)  # a's tail releases the channel, b wakes
        assert sw.parked_inputs == ()
        traverse(sw, 4)
        assert [f for f, _ in sent[0]] == a + b
        assert b[0].stall_cycles == 3


class TestStoreAndForward:
    def test_waits_for_whole_packet(self):
        sw, sent = make_switch(mode=SwitchingMode.STORE_AND_FORWARD)
        flits = packet_flits(dst=0, length=3)
        sw.receive(0, flits[0])
        traverse(sw, 0)
        assert sent[0] == []  # only head arrived: must wait
        sw.receive(0, flits[1])
        traverse(sw, 1)
        assert sent[0] == []
        sw.receive(0, flits[2])
        traverse(sw, 2)
        assert len(sent[0]) == 1  # complete: head may leave
        traverse(sw, 3)
        traverse(sw, 4)
        assert len(sent[0]) == 3

    def test_packet_longer_than_buffer_rejected(self):
        sw, _ = make_switch(
            depth=2, mode=SwitchingMode.STORE_AND_FORWARD
        )
        flits = packet_flits(dst=0, length=3)
        sw.receive(0, flits[0])
        sw.receive(0, flits[1])
        with pytest.raises(RuntimeError, match="store-and-forward"):
            traverse(sw, 0)

    def test_single_flit_packet_passes(self):
        sw, sent = make_switch(mode=SwitchingMode.STORE_AND_FORWARD)
        sw.receive(0, packet_flits(dst=0, length=1)[0])
        traverse(sw, 0)
        assert len(sent[0]) == 1


class TestArbitration:
    def test_round_robin_alternates(self):
        sw, sent = make_switch()
        # Two streams of single-flit packets to the same output.
        for k in range(4):
            sw.receive(0, packet_flits(dst=0, length=1, src=0)[0])
            sw.receive(1, packet_flits(dst=0, length=1, src=1)[0])
        for now in range(8):
            traverse(sw, now)
        sources = [f.src for f, _ in sent[0]]
        assert sources == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_fixed_priority_starves(self):
        sw, sent = make_switch(arbitration="fixed_priority")
        for k in range(3):
            sw.receive(0, packet_flits(dst=0, length=1, src=0)[0])
            sw.receive(1, packet_flits(dst=0, length=1, src=1)[0])
        for now in range(3):
            traverse(sw, now)
        assert [f.src for f, _ in sent[0]] == [0, 0, 0]


class TestStats:
    def test_buffered_flits(self):
        sw, _ = make_switch()
        for f in packet_flits(dst=0, length=3):
            sw.receive(0, f)
        assert sw.buffered_flits == 3

    def test_output_credits_view(self):
        sw, _ = make_switch()
        assert sw.output_credits(0) == 8
        sw.receive(0, packet_flits(dst=0, length=1)[0])
        traverse(sw, 0)
        assert sw.output_credits(0) == 7

    def test_reset_stats(self):
        sw, _ = make_switch()
        sw.receive(0, packet_flits(dst=0, length=1)[0])
        traverse(sw, 0)
        sw.reset_stats()
        assert sw.flits_forwarded == 0
        assert sw.blocked_flit_cycles == 0
