"""Unit tests for the memory-mapped processor orchestration."""

import pytest

from repro.core.engine import EmulationEngine
from repro.core.errors import EmulationError
from repro.core.platform import build_platform
from repro.core.processor import Processor
from repro.experiments.spec import ScenarioSpec


@pytest.fixture
def platform():
    return build_platform(
        ScenarioSpec(packets=100, receptors="tracedriven").to_platform_config()
    )


@pytest.fixture
def processor(platform):
    return Processor(platform)


class TestRunControl:
    def test_start_stop(self, platform, processor):
        processor.start()
        assert platform.control.running
        assert processor.running
        processor.stop()
        assert not platform.control.running

    def test_progress_poll(self, platform, processor):
        platform.run(1000)
        progress = processor.progress()
        assert progress["cycles"] == 1000
        assert progress["sent"] == platform.packets_sent
        assert progress["received"] == platform.packets_received

    def test_done_bit(self, platform, processor):
        platform.run(12_000)
        assert processor.done

    def test_cycles_reassembled_from_words(self, platform, processor):
        platform.run(123)
        assert processor.cycles() == 123


class TestInitialisation:
    def test_initialise_generator_applies_settings(
        self, platform, processor
    ):
        processor.initialise_generator(0, seed=999, max_packets=7)
        gen = platform.generators[0]
        assert gen.max_packets == 7
        assert gen.model._seed == 999
        assert gen.packets_sent == 0

    def test_initialise_with_params(self, platform, processor):
        processor.initialise_generator(0, params={0: 16, 1: 40})
        model = platform.generators[0].model
        assert model._length_range == (16, 16)
        assert model._interval_range == (40, 40)

    def test_unknown_tg_node(self, processor):
        with pytest.raises(EmulationError, match="no TG"):
            processor.initialise_generator(7)

    def test_reset_statistics(self, platform, processor):
        platform.run(3000)
        processor.reset_statistics()
        assert platform.packets_received == 0


class TestStatisticsReadout:
    def test_generator_counters(self, platform, processor):
        platform.run(2000)
        counters = processor.read_generator_counters(0)
        assert counters["SENT"] == platform.generators[0].packets_sent
        assert counters["FLITS"] == platform.generators[0].flits_sent

    def test_receptor_counters(self, platform, processor):
        platform.run(5000)
        counters = processor.read_receptor_counters(4)
        receptor = next(
            r for r in platform.receptors if r.node == 4
        )
        assert counters["PACKETS"] == receptor.packets_received

    def test_latency_summary(self, platform, processor):
        platform.run(12_000)
        summary = processor.read_latency_summary(4)
        receptor = next(r for r in platform.receptors if r.node == 4)
        assert summary["count"] == receptor.latency.count
        assert summary["mean"] == pytest.approx(
            receptor.latency.mean_latency
        )
        assert summary["min"] <= summary["max"]

    def test_congestion_summary(self, platform, processor):
        platform.run(12_000)
        summary = processor.read_congestion_summary(4)
        receptor = next(r for r in platform.receptors if r.node == 4)
        assert (
            summary["stall_cycles"]
            == receptor.congestion.total_stall_cycles
        )

    def test_unknown_tr_node(self, processor):
        with pytest.raises(EmulationError, match="no TR"):
            processor.read_receptor_counters(0)


class TestHistogramDrain:
    def test_drain_matches_device_state(self):
        platform = build_platform(
            ScenarioSpec(
                packets=100, receptors="stochastic"
            ).to_platform_config()
        )
        platform.run(12_000)
        processor = Processor(platform)
        counts = processor.drain_histogram(4, which=0)
        receptor = next(r for r in platform.receptors if r.node == 4)
        assert counts == receptor.length_histogram.counts

    def test_bus_only_orchestration_counts_accesses(self, platform):
        processor = Processor(platform)
        fabric = platform.fabric
        before = sum(fabric.reads) + sum(fabric.writes)
        processor.start()
        processor.progress()
        processor.stop()
        assert sum(fabric.reads) + sum(fabric.writes) > before
