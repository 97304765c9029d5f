"""Acceptance parity: telemetry must be kernel-invisible.

The event-driven kernel and the scan-everything oracle must produce
bit-identical window series and trace streams on a saturated, faulted
run — and turning telemetry on must leave idle fast-forward and input
parking engaged (the whole point of boundary differencing over
per-cycle sampling).
"""

import io

import pytest

from repro.checkpoint import snapshot
from repro.core.engine import EmulationEngine
from repro.core.platform import build_platform
from repro.experiments.spec import ScenarioSpec
from repro.faults import FaultInjector, FaultSchedule, link_down
from repro.telemetry import FlitTracer, WindowedMetrics

pytestmark = pytest.mark.chaos

SCHEDULE = FaultSchedule.of(link_down(600, 1, 4), link_down(600, 4, 1))


def fresh_platform(**kwargs):
    spec = ScenarioSpec(topology="paper", **kwargs)
    return build_platform(spec.to_platform_config())


def instrumented_run(reference, cycles, window, **kwargs):
    """One kernel, stepped in the engine's order with telemetry on."""
    platform = fresh_platform(**kwargs)
    telemetry = WindowedMetrics(platform, window)
    stream = io.StringIO()
    tracer = FlitTracer(stream=stream)
    platform.network.attach_tracer(tracer)
    injector = FaultInjector(SCHEDULE, platform)
    injector.begin(platform.cycle)
    step = platform.step_reference if reference else platform.step
    net = platform.network
    tel_next = telemetry.begin(net.cycle)
    for _ in range(cycles):
        now = net.cycle
        if now >= tel_next:
            tel_next = telemetry.advance(now)
        injector.tick(now)
        step()
    telemetry.finish(net.cycle)
    platform.network.detach_tracer()
    tracer.close()
    assert net.in_flight_flits == net.scan_in_flight_flits()
    return telemetry.records, tracer.events, stream.getvalue()


class TestKernelParity:
    def test_saturated_faulted_run_bit_identical(self):
        """The ISSUE's acceptance scenario: saturation + fault, both
        kernels, identical windows AND identical trace streams."""
        kwargs = dict(packets=200, load=0.9)
        event = instrumented_run(False, 4000, window=257, **kwargs)
        reference = instrumented_run(True, 4000, window=257, **kwargs)
        assert event[0] == reference[0]  # window records
        assert event[1] == reference[1]  # trace event dicts
        assert event[2] == reference[2]  # raw JSONL text
        # Non-vacuity: the fault really fired and parking really shows.
        assert any(
            e["kind"] == "fault" for e in event[1]
        )
        assert any(w.parked_inputs > 0 for w in event[0])
        assert any(w.fault_dropped_flits > 0 for w in event[0])


def traced_or_untraced_run(traced, cycles=4000):
    """The saturated, faulted scenario on the event kernel, with or
    without a tracer; returns window records, counters, the checkpoint
    state (taken after the tracer is detached) and which parking
    regimes engaged."""
    spec = ScenarioSpec(topology="paper", packets=200, load=0.9)
    platform = build_platform(spec.to_platform_config())
    net = platform.network
    telemetry = WindowedMetrics(platform, 257)
    tracer = FlitTracer(stream=io.StringIO()) if traced else None
    if tracer is not None:
        net.attach_tracer(tracer)
    injector = FaultInjector(SCHEDULE, platform)
    injector.begin(platform.cycle)
    tel_next = telemetry.begin(net.cycle)
    inputs_parked = nis_parked = False
    for _ in range(cycles):
        now = net.cycle
        if now >= tel_next:
            tel_next = telemetry.advance(now)
        injector.tick(now)
        platform.step()
        inputs_parked |= any(sw._parked_count > 0 for sw in net.switches)
        nis_parked |= any(ni._parked for ni in net.nis)
    telemetry.finish(net.cycle)
    if tracer is not None:
        net.detach_tracer()
        tracer.close()
        assert tracer.events
    counters = {
        "switches": [
            (sw.stats_snapshot(), sw.buffered_flits) for sw in net.switches
        ],
        "nis": [
            (ni.stats_snapshot(), ni.offered_packets, ni.pending_flits)
            for ni in net.nis
        ],
        "links": [
            (link.stats_snapshot(), link.wire_count) for link in net.links
        ],
        "rx": [rx.stats_snapshot() for rx in net.rx],
        "generators": [
            (g.packets_sent, g.flits_sent, g.backpressure_cycles)
            for g in platform.generators
        ],
    }
    state = snapshot(platform, spec).state
    return telemetry.records, counters, state, (inputs_parked, nis_parked)


class TestTracedEventKernel:
    """A tracer switches the event kernel's delivery and injection
    phases from their inlined forms to the out-of-line ones (link
    sinks, ``NetworkInterface.inject``): both must leave the fabric in
    the same state."""

    def test_traced_and_untraced_runs_end_identical(self):
        traced = traced_or_untraced_run(True)
        untraced = traced_or_untraced_run(False)
        assert traced[0] == untraced[0]  # window records
        assert traced[1] == untraced[1]  # component counters
        assert traced[2] == untraced[2]  # checkpoint state dict
        # Non-vacuity: input and NI parking both engaged while traced.
        assert traced[3] == (True, True)


class TestOptimisationsStayEngaged:
    BURSTY = dict(
        packets=None,
        traffic="trace",
        traffic_params={
            "n_bursts": 8,
            "packets_per_burst": 4,
            "gap": 5000,
        },
    )

    def run_counting(self, telemetry_factory):
        """Engine run with network.step calls counted."""
        platform = fresh_platform(**self.BURSTY)
        steps = [0]
        inner = platform.network.step

        def counting():
            steps[0] += 1
            inner()

        platform.network.step = counting
        telemetry = telemetry_factory(platform)
        result = EmulationEngine(platform, telemetry=telemetry).run()
        return platform, result, steps[0]

    def test_fast_forward_engaged_with_windows_on(self):
        _, result, steps = self.run_counting(
            lambda p: WindowedMetrics(p, 300)
        )
        # 8 bursts separated by 5000 idle cycles: fast-forward must
        # skip the bulk of the run even though every window boundary
        # is honoured.
        assert result.cycles > 20_000
        assert steps < result.cycles / 2
        assert result.windows[-1].end == result.cycles

    def test_fast_forward_identical_without_telemetry(self):
        """Telemetry must not change what the run computes."""
        _, with_tel, _ = self.run_counting(
            lambda p: WindowedMetrics(p, 300)
        )
        _, without, _ = self.run_counting(lambda p: None)
        assert with_tel.cycles == without.cycles
        assert with_tel.packets_received == without.packets_received

    def test_parking_engaged_with_windows_on(self):
        platform = fresh_platform(packets=400, load=0.9)
        saw_parked = [0]
        inner = platform.network.step

        def watching():
            inner()
            parked = sum(
                sw._parked_count for sw in platform.network.switches
            )
            if parked > saw_parked[0]:
                saw_parked[0] = parked
        platform.network.step = watching
        telemetry = WindowedMetrics(platform, 100)
        result = EmulationEngine(platform, telemetry=telemetry).run()
        # The kernel's own parking counters engaged mid-run, and the
        # window series reported it.
        assert saw_parked[0] > 0
        assert any(w.parked_inputs > 0 for w in result.windows)


class TestSampleBuffersPin:
    """Satellite: per-cycle occupancy sampling is the one feature that
    legitimately disables idle fast-forward — pin that, and pin that
    windowed telemetry does not."""

    BURSTY = dict(
        packets=None,
        traffic="trace",
        traffic_params={
            "n_bursts": 4,
            "packets_per_burst": 3,
            "gap": 1500,
        },
    )

    def counting_run(self, sample_buffers):
        spec = ScenarioSpec(topology="paper", **self.BURSTY)
        config = spec.to_platform_config()
        config.sample_buffers = sample_buffers
        platform = build_platform(config)
        steps = [0]
        inner = platform.network.step

        def counting():
            steps[0] += 1
            inner()

        platform.network.step = counting
        result = EmulationEngine(platform).run()
        return platform, result, steps[0]

    def test_sampling_disables_fast_forward(self):
        platform, result, steps = self.counting_run(True)
        assert not platform.idle_fast_forward()  # hard-disabled
        assert steps == result.cycles  # every idle cycle executed

    def test_without_sampling_fast_forward_engages(self):
        _, result, steps = self.counting_run(False)
        assert steps < result.cycles / 2

    def test_occupancy_error_points_at_windowed_series(self):
        from repro.stats.occupancy import OccupancyReport

        platform = fresh_platform(packets=50)
        with pytest.raises(ValueError, match="WindowedMetrics"):
            OccupancyReport(platform.network)
