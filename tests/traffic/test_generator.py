"""Unit tests for the traffic-generator device core."""

import pytest

from repro.noc.link import Link
from repro.noc.ni import NetworkInterface
from repro.traffic.base import FixedDestination
from repro.traffic.generator import TrafficGenerator
from repro.traffic.trace import TraceTraffic, synthetic_burst_trace
from repro.traffic.uniform import UniformTraffic


def make_generator(max_packets=None, queue_limit=64):
    ni = NetworkInterface(0)
    ni.connect(Link(), credits=1_000_000)
    model = UniformTraffic(
        length=2, interval=4, destination=FixedDestination(3)
    )
    gen = TrafficGenerator(
        0,
        model,
        ni,
        max_packets=max_packets,
        queue_limit=queue_limit,
    )
    return gen, ni


class TestEmission:
    def test_packets_stamped_with_cycle_and_src(self):
        gen, _ = make_generator()
        p = gen.step(0)
        assert p is not None
        assert p.src == 0
        assert p.dst == 3
        assert p.injection_cycle == 0

    def test_cadence_follows_model(self):
        gen, _ = make_generator()
        emitted = [now for now in range(20) if gen.step(now)]
        assert emitted == [0, 4, 8, 12, 16]

    def test_counters(self):
        gen, ni = make_generator()
        for now in range(8):
            gen.step(now)
        assert gen.packets_sent == 2
        assert gen.flits_sent == 4
        assert ni.offered_packets == 2


class TestBudget:
    def test_max_packets_stops_emission(self):
        gen, _ = make_generator(max_packets=3)
        for now in range(100):
            gen.step(now)
        assert gen.packets_sent == 3
        assert gen.done

    def test_unbounded_generator_never_done(self):
        gen, _ = make_generator()
        for now in range(50):
            gen.step(now)
        assert not gen.done

    def test_validation(self):
        ni = NetworkInterface(0)
        ni.connect(Link(), credits=4)
        model = UniformTraffic(1, 1, FixedDestination(1))
        with pytest.raises(ValueError):
            TrafficGenerator(0, model, ni, max_packets=-1)
        with pytest.raises(ValueError):
            TrafficGenerator(0, model, ni, queue_limit=0)


class TestBackpressure:
    def test_stalls_on_full_queue(self):
        gen, ni = make_generator(queue_limit=2)
        gen.step(0)  # fills the queue with 2 flits (nothing drains)
        assert gen.step(4) is None
        assert gen.backpressure_cycles == 1

    def test_resumes_after_drain(self):
        gen, ni = make_generator(queue_limit=2)
        gen.step(0)
        gen.step(4)  # blocked
        ni.inject(4)
        ni.inject(5)  # queue drained
        assert gen.step(6) is not None


class TestControl:
    def test_disable_stops_emission(self):
        gen, _ = make_generator()
        gen.disable()
        assert gen.step(0) is None
        gen.enable()
        assert gen.step(0) is not None

    def test_reset_clears_counters_and_rewinds(self):
        gen, _ = make_generator()
        gen.step(0)
        gen.reset()
        assert gen.packets_sent == 0
        assert gen.step(0) is not None  # model rewound to cycle 0


class TestTraceDrivenGenerator:
    def test_exhaustion_visible(self):
        ni = NetworkInterface(0)
        ni.connect(Link(), credits=100)
        trace = synthetic_burst_trace(
            n_bursts=1,
            packets_per_burst=2,
            flits_per_packet=1,
            gap=0,
            dst=3,
        )
        gen = TrafficGenerator(0, TraceTraffic(trace), ni)
        for now in range(10):
            gen.step(now)
        assert gen.model.exhausted
        assert gen.packets_sent == 2
