"""Unit tests for the bounded flit FIFO."""

import pytest

from repro.noc.buffer import BufferEmptyError, BufferFullError, FlitBuffer
from repro.noc.flit import Packet


def flits(n, length=None):
    p = Packet(src=0, dst=1, length=length or n)
    return p.flits()[:n]


class TestFifoSemantics:
    def test_fifo_order(self):
        buf = FlitBuffer(4)
        fs = flits(4)
        for f in fs:
            buf.push(f)
        assert [buf.pop() for _ in range(4)] == fs

    def test_peek_does_not_consume(self):
        buf = FlitBuffer(2)
        fs = flits(2)
        buf.push(fs[0])
        assert buf.peek() is fs[0]
        assert len(buf) == 1

    def test_head_returns_none_when_empty(self):
        assert FlitBuffer(1).head() is None

    def test_push_into_full_raises(self):
        buf = FlitBuffer(1)
        fs = flits(2, length=2)
        buf.push(fs[0])
        with pytest.raises(BufferFullError):
            buf.push(fs[1])

    def test_pop_empty_raises(self):
        with pytest.raises(BufferEmptyError):
            FlitBuffer(1).pop()

    def test_peek_empty_raises(self):
        with pytest.raises(BufferEmptyError):
            FlitBuffer(1).peek()

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FlitBuffer(0)

    def test_free_slots_and_flags(self):
        buf = FlitBuffer(2)
        assert buf.is_empty and not buf.is_full
        assert buf.free_slots == 2
        fs = flits(2)
        buf.push(fs[0])
        assert buf.free_slots == 1
        buf.push(fs[1])
        assert buf.is_full and buf.free_slots == 0

    def test_clear(self):
        buf = FlitBuffer(3)
        for f in flits(3):
            buf.push(f)
        buf.clear()
        assert buf.is_empty

    def test_iteration_in_order(self):
        buf = FlitBuffer(3)
        fs = flits(3)
        for f in fs:
            buf.push(f)
        assert list(buf) == fs


class TestStatistics:
    def test_push_pop_counters(self):
        buf = FlitBuffer(4)
        fs = flits(3)
        for f in fs:
            buf.push(f)
        buf.pop()
        assert buf.total_pushes == 3
        assert buf.total_pops == 1

    def test_peak_occupancy(self):
        buf = FlitBuffer(4)
        fs = flits(3)
        buf.push(fs[0])
        buf.push(fs[1])
        buf.pop()
        buf.push(fs[2])
        assert buf.peak_occupancy == 2

    def test_occupancy_sampling(self):
        buf = FlitBuffer(2)
        fs = flits(2)
        buf.sample()  # empty
        buf.push(fs[0])
        buf.sample()  # one
        buf.push(fs[1])
        buf.sample()  # two (full)
        assert buf.mean_occupancy == pytest.approx(1.0)
        assert buf.full_fraction == pytest.approx(1 / 3)

    def test_mean_occupancy_zero_without_samples(self):
        assert FlitBuffer(2).mean_occupancy == 0.0
        assert FlitBuffer(2).full_fraction == 0.0

    def test_reset_stats_keeps_contents(self):
        buf = FlitBuffer(4)
        fs = flits(2)
        for f in fs:
            buf.push(f)
        buf.sample()
        buf.reset_stats()
        assert len(buf) == 2
        assert buf.total_pushes == 0
        assert buf.peak_occupancy == 2  # reset to current occupancy
        assert buf.mean_occupancy == 0.0
