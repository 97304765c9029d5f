"""Unit tests for the statistics analyzers."""

import pytest

from repro.noc.flit import Packet
from repro.noc.network import Network
from repro.noc.routing import build_shortest_path_tables
from repro.noc.topology import mesh
from repro.stats.congestion import CongestionCounter, network_congestion_rate
from repro.stats.latency import LatencyAnalyzer


def packet(injection=0, burst=None, length=2):
    return Packet(
        src=0, dst=1, length=length, injection_cycle=injection,
        burst_id=burst,
    )


class TestLatencyAnalyzer:
    def test_basic_aggregates(self):
        lat = LatencyAnalyzer()
        lat.record(packet(injection=0), 10)
        lat.record(packet(injection=5), 35)
        assert lat.count == 2
        assert lat.mean_latency == pytest.approx(20.0)
        assert lat.min_latency == 10
        assert lat.max_latency == 30

    def test_negative_latency_rejected(self):
        lat = LatencyAnalyzer()
        with pytest.raises(ValueError):
            lat.record(packet(injection=10), 5)

    def test_returns_latency(self):
        lat = LatencyAnalyzer()
        assert lat.record(packet(injection=3), 10) == 7

    def test_quantile_via_histogram(self):
        lat = LatencyAnalyzer(histogram_bins=16, histogram_bin_width=1)
        for l in range(10):
            lat.record(packet(injection=0), l)
        assert 4 <= lat.quantile(0.5) <= 6

    def test_burst_aggregation(self):
        lat = LatencyAnalyzer()
        lat.record(packet(injection=0, burst=0), 10)
        lat.record(packet(injection=0, burst=0), 20)
        lat.record(packet(injection=0, burst=1), 40)
        per_burst = lat.mean_latency_per_burst()
        assert per_burst[0] == pytest.approx(15.0)
        assert per_burst[1] == pytest.approx(40.0)
        assert lat.mean_burst_size() == pytest.approx(1.5)

    def test_merge(self):
        a, b = LatencyAnalyzer(), LatencyAnalyzer()
        a.record(packet(injection=0, burst=0), 10)
        b.record(packet(injection=0, burst=0), 30)
        b.record(packet(injection=0, burst=2), 50)
        a.merge(b)
        assert a.count == 3
        assert a.min_latency == 10
        assert a.max_latency == 50
        assert a.mean_latency_per_burst()[0] == pytest.approx(20.0)

    def test_merge_into_empty(self):
        a, b = LatencyAnalyzer(), LatencyAnalyzer()
        b.record(packet(injection=0), 5)
        a.merge(b)
        assert a.min_latency == 5

    def test_reset(self):
        lat = LatencyAnalyzer()
        lat.record(packet(), 5)
        lat.reset()
        assert lat.count == 0
        assert lat.mean_latency == 0.0
        assert lat.bursts_seen == 0

    def test_empty_defaults(self):
        lat = LatencyAnalyzer()
        assert lat.mean_latency == 0.0
        assert lat.mean_burst_size() == 0.0


class TestCongestionCounter:
    def _flits(self, stalls):
        p = Packet(src=0, dst=1, length=len(stalls))
        flits = p.flits()
        for f, s in zip(flits, stalls):
            f.stall_cycles = s
        return p, flits

    def test_accumulation(self):
        con = CongestionCounter()
        p, flits = self._flits([2, 0, 1])
        assert con.record(p, flits) == 3
        assert con.total_stall_cycles == 3
        assert con.mean_stall_per_packet == pytest.approx(3.0)
        assert con.mean_stall_per_flit == pytest.approx(1.0)

    def test_congested_fraction(self):
        con = CongestionCounter()
        con.record(*self._flits([0, 0]))
        con.record(*self._flits([1, 0]))
        assert con.congested_fraction == pytest.approx(0.5)

    def test_max_packet_stall(self):
        con = CongestionCounter()
        con.record(*self._flits([1]))
        con.record(*self._flits([7]))
        assert con.max_packet_stall == 7

    def test_merge(self):
        a, b = CongestionCounter(), CongestionCounter()
        a.record(*self._flits([1]))
        b.record(*self._flits([5, 5]))
        a.merge(b)
        assert a.packets == 2
        assert a.total_stall_cycles == 11
        assert a.max_packet_stall == 10

    def test_reset_and_empty(self):
        con = CongestionCounter()
        assert con.mean_stall_per_packet == 0.0
        con.record(*self._flits([1]))
        con.reset()
        assert con.packets == 0


class TestNetworkCongestionRate:
    def test_zero_on_idle_network(self):
        topo = mesh(2, 2)
        net = Network(topo, build_shortest_path_tables(topo))
        assert network_congestion_rate(net) == 0.0

    def test_zero_without_contention(self):
        topo = mesh(2, 2)
        net = Network(topo, build_shortest_path_tables(topo))
        net.offer(Packet(src=0, dst=3, length=4))
        net.drain()
        assert network_congestion_rate(net) == 0.0

    def test_positive_under_contention(self):
        topo = mesh(2, 2)
        net = Network(topo, build_shortest_path_tables(topo))
        # Two flows forced through the same ejection port.
        for k in range(20):
            net.offer(Packet(src=0, dst=3, length=4, injection_cycle=0))
            net.offer(Packet(src=1, dst=3, length=4, injection_cycle=0))
        net.drain()
        rate = network_congestion_rate(net)
        assert 0.0 < rate < 1.0

