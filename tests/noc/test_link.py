"""Unit tests for the inter-switch link pipeline."""

import pytest

from repro.noc.flit import Packet
from repro.noc.link import Link


def one_flit():
    return Packet(src=0, dst=1, length=1).flits()[0]


def arrivals(link, now):
    """Drain the wheel slot of cycle ``now`` as the network's delivery
    phase does; return the flits that arrived."""
    slot = link.wheel[now % link.wheel_size]
    flits = [flit for wired, flit in slot if wired is link]
    del slot[:]
    return flits


class TestFlitPath:
    def test_delivery_after_delay(self):
        link = Link(delay=2)
        f = one_flit()
        link.send(f, now=5)
        assert arrivals(link, 5) == []
        assert arrivals(link, 6) == []
        assert arrivals(link, 7) == [f]

    def test_unit_delay_default(self):
        link = Link()
        f = one_flit()
        link.send(f, now=0)
        assert arrivals(link, 1) == [f]

    def test_one_flit_per_cycle_enforced(self):
        link = Link()
        link.send(one_flit(), now=3)
        with pytest.raises(RuntimeError, match="one flit per cycle"):
            link.send(one_flit(), now=3)

    def test_consecutive_cycles_allowed(self):
        link = Link()
        a, b = one_flit(), one_flit()
        link.send(a, now=0)
        link.send(b, now=1)
        assert arrivals(link, 1) == [a]
        assert arrivals(link, 2) == [b]

    def test_occupancy(self):
        link = Link(delay=3)
        assert link.wire_count == 0
        link.send(one_flit(), now=0)
        assert link.wire_count == 1
        arrivals(link, 3)
        assert link.wire_count == 0

    def test_sends_into_a_shared_wheel(self):
        """A network-wired link appends to the wheel it was given."""
        wheel = [[] for _ in range(4)]
        link = Link(delay=3)
        link.wheel, link.wheel_size = wheel, 4
        f = one_flit()
        link.send(f, now=2)
        assert wheel[5 % 4] == [(link, f)]
        assert link.wire_count == 1

    def test_down_link_rejects_sends(self):
        link = Link()
        link.down = True
        with pytest.raises(RuntimeError, match="is down"):
            link.send(one_flit(), now=0)

    def test_delay_validation(self):
        with pytest.raises(ValueError):
            Link(delay=0)


class TestStatistics:
    def test_utilization(self):
        link = Link()
        for now in range(5):
            link.send(one_flit(), now=now)
        assert link.utilization(10) == pytest.approx(0.5)

    def test_utilization_clamped_and_safe(self):
        link = Link()
        assert link.utilization(0) == 0.0
        link.send(one_flit(), now=0)
        assert link.utilization(1) == 1.0

    def test_reset_stats(self):
        link = Link()
        link.send(one_flit(), now=0)
        link.reset_stats()
        assert link.flits_carried == 0
        assert link.busy_cycles == 0
