"""Unit tests for the bounded flit FIFO.

A buffer has no push or pop of its own: ``Switch.receive`` holds the
push rule and the switch traverse the pop rule.  These tests drive one
input buffer of a standalone switch through both.
"""

import pytest

from repro.noc.buffer import BufferFullError, FlitBuffer
from repro.noc.flit import Packet
from repro.noc.routing import TableRouting
from repro.noc.switch import Switch, SwitchConfig, SwitchingMode


def flits(n, length=None):
    p = Packet(src=0, dst=1, length=length or n)
    return p.flits()[:n]


class Fifo:
    """The input buffer of a one-port switch whose output has unlimited
    credits: :meth:`push` is a flit arrival, :meth:`pop` one cycle of
    the switch, which moves the head flit out."""

    def __init__(self, capacity, mode=SwitchingMode.WORMHOLE):
        self.switch = Switch(
            0,
            SwitchConfig(
                n_inputs=1, n_outputs=1, buffer_depth=capacity, mode=mode
            ),
            TableRouting([[0, 0]]),
        )
        self.now = 0
        self.switch._clock = lambda: self.now
        self.sent = []
        self.switch.connect_output(
            0, lambda flit, now: self.sent.append(flit), credits=None
        )
        self.buffer = self.switch.inputs[0]

    def push(self, flit):
        self.switch.receive(0, flit)

    def pop(self):
        moved = self.switch.traverse(self.now)
        self.now += 1
        assert moved == 1
        return self.sent[-1]


class TestFifoSemantics:
    def test_fifo_order(self):
        fifo = Fifo(4)
        fs = flits(4)
        for f in fs:
            fifo.push(f)
        assert fifo.buffer.head() is fs[0]
        assert [fifo.pop() for _ in range(4)] == fs
        assert fifo.buffer.is_empty

    def test_head_returns_none_when_empty(self):
        assert FlitBuffer(1).head() is None

    def test_push_into_full_raises(self):
        fifo = Fifo(1)
        fs = flits(2, length=2)
        fifo.push(fs[0])
        with pytest.raises(BufferFullError):
            fifo.push(fs[1])
        assert list(fifo.buffer) == fs[:1]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FlitBuffer(0)

    def test_free_slots_and_flags(self):
        fifo = Fifo(2)
        buf = fifo.buffer
        assert buf.is_empty and not buf.is_full
        assert buf.free_slots == 2
        fs = flits(2)
        fifo.push(fs[0])
        assert buf.free_slots == 1
        fifo.push(fs[1])
        assert buf.is_full and buf.free_slots == 0

    def test_clear(self):
        fifo = Fifo(3)
        for f in flits(3):
            fifo.push(f)
        fifo.buffer.clear()
        assert fifo.buffer.is_empty
        assert fifo.buffer.total_pops == 0  # dropped, not popped

    def test_iteration_in_order(self):
        fifo = Fifo(3)
        fs = flits(3)
        for f in fs:
            fifo.push(f)
        assert list(fifo.buffer) == fs

    def test_per_packet_counts(self):
        fifo = Fifo(4, mode=SwitchingMode.STORE_AND_FORWARD)
        a = Packet(src=0, dst=1, length=2).flits()
        b = Packet(src=0, dst=1, length=2).flits()
        fifo.push(a[0])
        buf = fifo.buffer
        assert buf.packet_flit_count(a[0].packet.pid) == 1
        for f in (a[1], b[0]):
            fifo.push(f)
        assert buf.packet_flit_count(a[0].packet.pid) == 2
        assert buf.packet_flit_count(b[0].packet.pid) == 1
        assert fifo.pop() is a[0]
        assert buf.packet_flit_count(a[0].packet.pid) == 1
        assert fifo.pop() is a[1]
        assert buf.packet_flit_count(a[0].packet.pid) == 0
        assert a[0].packet.pid not in buf._pid_counts


class TestStatistics:
    def test_push_pop_counters(self):
        fifo = Fifo(4)
        fs = flits(3)
        for f in fs:
            fifo.push(f)
        fifo.pop()
        assert fifo.buffer.total_pushes == 3
        assert fifo.buffer.total_pops == 1

    def test_peak_occupancy(self):
        fifo = Fifo(4)
        fs = flits(3)
        fifo.push(fs[0])
        fifo.push(fs[1])
        fifo.pop()
        fifo.push(fs[2])
        assert fifo.buffer.peak_occupancy == 2

    def test_occupancy_sampling(self):
        fifo = Fifo(2)
        buf = fifo.buffer
        fs = flits(2)
        buf.sample()  # empty
        fifo.push(fs[0])
        buf.sample()  # one
        fifo.push(fs[1])
        buf.sample()  # two (full)
        assert buf.mean_occupancy == pytest.approx(1.0)
        assert buf.full_fraction == pytest.approx(1 / 3)

    def test_mean_occupancy_zero_without_samples(self):
        assert FlitBuffer(2).mean_occupancy == 0.0
        assert FlitBuffer(2).full_fraction == 0.0

    def test_reset_stats_keeps_contents(self):
        fifo = Fifo(4)
        buf = fifo.buffer
        fs = flits(2)
        for f in fs:
            fifo.push(f)
        buf.sample()
        buf.reset_stats()
        assert len(buf) == 2
        assert buf.total_pushes == 0
        assert buf.peak_occupancy == 2  # reset to current occupancy
        assert buf.mean_occupancy == 0.0
