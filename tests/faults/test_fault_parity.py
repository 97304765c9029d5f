"""Kernel parity under fault injection.

Every fault mutation goes through shared component code, so the
event-driven kernel (`Network.step`) and the scan-everything oracle
(`step_reference`) must stay bit-identical through link death, link
revival, flaky windows and switch death — including the abort
settlements, credit refunds and route-cache invalidation each implies.
The harness ticks one injector per platform in lockstep with the
stepping loop, exactly as the engine does (tick at the top of the
cycle, before the credit phase).
"""

import pytest

from repro.core.platform import build_platform
from repro.experiments.spec import ScenarioSpec
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    link_down,
    link_up,
    switch_down,
)
from repro.receptors.tracedriven import TraceDrivenReceptor
from repro.stats.congestion import network_congestion_rate

pytestmark = pytest.mark.chaos


def fresh_platform(make_config):
    """A platform numbering its packets from pid 0 (pids feed the
    flaky drop RNG), whatever the process built before."""
    return build_platform(make_config())


def snapshot(platform):
    """Every observable statistic, including the fault counters."""
    net = platform.network
    snap = {
        "cycle": net.cycle,
        "packets_sent": platform.packets_sent,
        "packets_received": platform.packets_received,
        "in_flight": net.in_flight_flits,
        "congestion_rate": network_congestion_rate(net),
        "blocked": net.total_blocked_flit_cycles,
        "link_loads": net.link_loads(),
        "switches": [
            (
                sw.flits_forwarded,
                sw.blocked_flit_cycles,
                sw.credit_stall_cycles,
                sw.buffered_flits,
            )
            for sw in net.switches
        ],
        "links": [
            (
                link.flits_carried,
                link.busy_cycles,
                link.wire_count,
                link.flits_dropped,
                link.down,
            )
            for link in net.links
        ],
        "nis": [
            (
                ni.offered_packets,
                ni.injected_flits,
                ni.injected_packets,
                ni.stall_cycles,
                ni.pending_flits,
            )
            for ni in net.nis
        ],
        "rx": [
            (
                rx.received_flits,
                rx.received_packets,
                rx.partial_packets,
                rx.aborted_packets,
            )
            for rx in net.rx
        ],
        "receptors": [
            (r.packets_received, r.flits_received, r.first_cycle, r.last_cycle)
            for r in platform.receptors
        ],
        "generators": [
            (g.packets_sent, g.flits_sent, g.backpressure_cycles)
            for g in platform.generators
        ],
    }
    for receptor in platform.receptors:
        if isinstance(receptor, TraceDrivenReceptor):
            lat = receptor.latency
            snap[f"latency{receptor.node}"] = (
                lat.count,
                lat.total_latency,
                lat.min_latency,
                lat.max_latency,
            )
            snap[f"hist{receptor.node}"] = tuple(lat.histogram.counts)
    return snap


def fault_snapshot(injector):
    """The deterministic face of the injector's report."""
    report = injector.report
    return {
        "dropped_flits": report.dropped_flits,
        "dropped_packets": report.dropped_packets,
        "per_link": dict(report.per_link_drops),
        "events": [
            (e.cycle, e.kind, e.dropped_flits, e.dropped_packets,
             e.repaired, e.recovery_cycles)
            for e in report.events
        ],
    }


def cosimulate(make_config, schedule, cycles):
    """Run both kernels under the same schedule; return snapshot pairs."""
    snaps = []
    for reference in (False, True):
        platform = fresh_platform(make_config)
        injector = FaultInjector(schedule, platform)
        injector.begin(platform.cycle)
        step = platform.step_reference if reference else platform.step
        for _ in range(cycles):
            injector.tick(platform.network.cycle)
            step()
        net = platform.network
        assert net.in_flight_flits == net.scan_in_flight_flits()
        snaps.append((snapshot(platform), fault_snapshot(injector)))
    return snaps


def paper_config(**kwargs):
    spec = ScenarioSpec(topology="paper", packets=200, **kwargs)
    return spec.to_platform_config


SCHEDULES = {
    "link_down": FaultSchedule.of(
        link_down(600, 1, 4), link_down(600, 4, 1)
    ),
    "link_up": FaultSchedule.of(
        link_down(600, 1, 4),
        link_down(600, 4, 1),
        link_up(1500, 1, 4),
        link_up(1500, 4, 1),
    ),
    "flaky": FaultSchedule.of(
        FaultEvent("flaky", 400, a=1, b=4, until=1400, drop_p=0.25, seed=11),
        FaultEvent("flaky", 400, a=4, b=1, until=1400, drop_p=0.25, seed=12),
    ),
    "switch_down": FaultSchedule.of(switch_down(700, 1)),
    "no_repair": FaultSchedule.of(
        link_down(600, 1, 4), link_down(600, 4, 1), repair=False
    ),
}


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_kernels_bit_identical_under_fault(name):
    event, reference = cosimulate(
        paper_config(), SCHEDULES[name], cycles=5000
    )
    assert event == reference


@pytest.mark.parametrize("name", ["link_down", "flaky", "switch_down"])
def test_parity_at_high_load(name):
    """Saturation parking + faults: aborts land on parked inputs."""
    event, reference = cosimulate(
        paper_config(load=0.9), SCHEDULES[name], cycles=5000
    )
    assert event == reference


def test_parity_with_shallow_buffers():
    """depth-1 buffers keep whole switches parked when the cut hits."""
    event, reference = cosimulate(
        paper_config(load=0.9, buffer_depth=1),
        SCHEDULES["link_down"],
        cycles=5000,
    )
    assert event == reference


def test_parity_under_store_and_forward():
    """S&F parks inputs waiting for whole packets; aborting a partial
    packet mid-accumulation must settle identically."""

    def config():
        spec = ScenarioSpec(
            topology="paper", packets=150, traffic="burst", length=4
        )
        cfg = spec.to_platform_config()
        cfg.switching = "store_and_forward"
        return cfg

    event, reference = cosimulate(
        config, SCHEDULES["link_down"], cycles=5000
    )
    assert event == reference


def test_parity_on_updown_routing():
    """Repair in the up*/down* family (avoid_links build + re-vet)."""

    def config():
        spec = ScenarioSpec(
            topology="mesh:3:3",
            routing="updown",
            packets=120,
            traffic="uniform",
            load=0.3,
        )
        return spec.to_platform_config()

    schedule = FaultSchedule.of(link_down(500, 4, 1))
    event, reference = cosimulate(config, schedule, cycles=5000)
    assert event == reference


def test_engine_run_matches_lockstep_manual_run():
    """The engine path (fast-forward clamped at fault cycles, wake
    scheduling) must land on the same final state as naive per-cycle
    ticking."""
    from repro.core.engine import EmulationEngine

    schedule = SCHEDULES["link_up"]
    platform = fresh_platform(paper_config())
    result = EmulationEngine(platform, faults=schedule).run()
    assert result.completed
    manual = fresh_platform(paper_config())
    injector = FaultInjector(schedule, manual)
    injector.begin(manual.cycle)
    while manual.cycle < result.cycles:
        injector.tick(manual.network.cycle)
        manual.step()
    assert snapshot(platform) == snapshot(manual)
    assert fault_snapshot_without_recovery(
        result.faults
    ) == fault_snapshot_without_recovery(injector.report)


def fault_snapshot_without_recovery(report):
    """Engine finalize() timing differs only in window cut points."""
    return {
        "dropped_flits": report.dropped_flits,
        "dropped_packets": report.dropped_packets,
        "per_link": dict(report.per_link_drops),
        "events": [
            (e.cycle, e.kind, e.dropped_flits, e.dropped_packets,
             e.repaired, e.recovery_cycles)
            for e in report.events
        ],
    }
