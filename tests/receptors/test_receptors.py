"""Unit tests for the receptor devices (base, stochastic, trace-driven)."""

import pytest

from repro.noc.flit import Packet
from repro.noc.ni import ReassemblyBuffer
from repro.receptors.base import TrafficReceptor
from repro.receptors.stochastic import StochasticReceptor
from repro.receptors.tracedriven import TraceDrivenReceptor


def deliver(receptor, src=0, dst=1, length=3, at=10, burst_id=None):
    """Push a complete packet through the receptor's callback."""
    p = Packet(
        src=src, dst=dst, length=length, injection_cycle=0,
        burst_id=burst_id,
    )
    flits = p.flits()
    receptor.on_packet(p, at, flits)
    return p, flits


class TestBaseReceptor:
    def test_counters(self):
        r = TrafficReceptor(1)
        deliver(r, at=5)
        deliver(r, at=9)
        assert r.packets_received == 2
        assert r.flits_received == 6

    def test_running_time(self):
        r = TrafficReceptor(1)
        assert r.running_time == 0
        deliver(r, at=5)
        assert r.running_time == 0  # single packet: no window yet
        deliver(r, at=25)
        assert r.running_time == 20

    def test_throughput(self):
        r = TrafficReceptor(1)
        deliver(r, at=0, length=4)
        deliver(r, at=8, length=4)
        assert r.throughput() == pytest.approx(1.0)

    def test_disabled_receptor_ignores(self):
        r = TrafficReceptor(1)
        r.enabled = False
        deliver(r)
        assert r.packets_received == 0

    def test_attach_sets_callback(self):
        r = TrafficReceptor(1)
        rx = ReassemblyBuffer(1)
        r.attach(rx)
        assert rx.on_packet == r.on_packet

    def test_attach_twice_rejected(self):
        rx = ReassemblyBuffer(1)
        TrafficReceptor(1).attach(rx)
        with pytest.raises(RuntimeError, match="already"):
            TrafficReceptor(1).attach(rx)

    def test_reset(self):
        r = TrafficReceptor(1)
        deliver(r)
        r.reset()
        assert r.packets_received == 0
        assert r.first_cycle is None


class TestStochasticReceptor:
    def test_length_histogram(self):
        r = StochasticReceptor(1)
        deliver(r, length=3)
        deliver(r, length=3)
        deliver(r, length=9)
        assert r.length_histogram.total == 3
        assert r.length_histogram.mean == pytest.approx(5.0)

    def test_gap_histogram_needs_two_packets(self):
        r = StochasticReceptor(1)
        deliver(r, at=10)
        assert r.gap_histogram.total == 0
        deliver(r, at=14)
        assert r.gap_histogram.total == 1
        assert r.gap_histogram.mean == pytest.approx(4.0)

    def test_source_histogram(self):
        r = StochasticReceptor(1, n_sources=8)
        deliver(r, src=0)
        deliver(r, src=5)
        deliver(r, src=5)
        assert r.source_histogram.counts[0] == 1
        assert r.source_histogram.counts[5] == 2

    def test_report_text(self):
        r = StochasticReceptor(2)
        deliver(r, at=3)
        deliver(r, at=8)
        text = r.report()
        assert "packets received : 2" in text
        assert "running time" in text
        assert "packet length" in text

    def test_reset_clears_histograms(self):
        r = StochasticReceptor(1)
        deliver(r, at=1)
        deliver(r, at=2)
        r.reset()
        assert r.length_histogram.total == 0
        assert r.gap_histogram.total == 0
        deliver(r, at=30)
        # Gap must not bridge across the reset.
        assert r.gap_histogram.total == 0


class TestTraceDrivenReceptor:
    def test_latency_recorded(self):
        r = TraceDrivenReceptor(1)
        deliver(r, at=25)  # injection_cycle = 0
        assert r.latency.count == 1
        assert r.latency.mean_latency == pytest.approx(25.0)

    def test_congestion_recorded(self):
        r = TraceDrivenReceptor(1)
        p, flits = deliver(r, at=10)
        assert r.congestion.packets == 1
        assert r.congestion.total_stall_cycles == 0
        flits2 = Packet(src=0, dst=1, length=2).flits()
        for f in flits2:
            f.stall_cycles = 3
        r.on_packet(flits2[0].packet, 20, flits2)
        assert r.congestion.total_stall_cycles == 6
        assert r.congestion.congested_packets == 1

    def test_burst_grouping(self):
        r = TraceDrivenReceptor(1)
        deliver(r, at=10, burst_id=0)
        deliver(r, at=12, burst_id=0)
        deliver(r, at=30, burst_id=1)
        assert r.latency.bursts_seen == 2
        assert r.latency.mean_burst_size() == pytest.approx(1.5)

    def test_report_text(self):
        r = TraceDrivenReceptor(3)
        deliver(r, at=15)
        text = r.report()
        assert "latency min/avg/max" in text
        assert "stall" in text

    def test_reset(self):
        r = TraceDrivenReceptor(1)
        deliver(r, at=10)
        r.reset()
        assert r.latency.count == 0
        assert r.congestion.packets == 0
