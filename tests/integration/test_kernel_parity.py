"""Event-driven kernel parity: `Network.step` vs `Network.step_reference`.

The event-driven kernel (active sets + armed links + idle fast-forward
+ incremental counters) must be *bit-identical* to the original
scan-everything dataflow, which survives as ``step_reference``.  These
tests co-simulate both paths on every traffic family / switching mode /
routing case the integration suite exercises and compare cycle counts,
per-packet latency statistics, congestion statistics and every
component-level counter.
"""

import pytest

from repro.core.engine import EmulationEngine
from repro.core.platform import build_platform
from repro.experiments.spec import ScenarioSpec
from repro.receptors.tracedriven import TraceDrivenReceptor
from repro.stats.congestion import network_congestion_rate


def fresh_platform(make_config):
    """A platform numbering its packets from pid 0 (pids seed the
    multipath routing hash), whatever the process built before."""
    return build_platform(make_config())


def snapshot(platform):
    """Every observable statistic of a platform, for exact comparison."""
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
            (link.flits_carried, link.busy_cycles, link.wire_count)
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
            (rx.received_flits, rx.received_packets, rx.partial_packets)
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
                lat.total_queueing,
                lat.total_network,
            )
            snap[f"hist{receptor.node}"] = tuple(lat.histogram.counts)
    return snap


def cosimulate(make_config, cycles):
    """Run the same config through both step paths; return snapshots."""
    event = fresh_platform(make_config)
    for _ in range(cycles):
        event.step()
    reference = fresh_platform(make_config)
    for _ in range(cycles):
        reference.step_reference()
    # The incremental in-flight counter must agree with a full scan on
    # both paths at every comparison point.
    for platform in (event, reference):
        net = platform.network
        assert net.in_flight_flits == net.scan_in_flight_flits()
    return snapshot(event), snapshot(reference)


SCENARIOS = [
    dict(traffic="uniform", packets=300),
    dict(traffic="uniform", packets=300, load=0.9),
    dict(traffic="burst", packets=300),
    dict(traffic="poisson", packets=300, load=0.05),
    dict(traffic="onoff", packets=300, load=0.1),
    dict(
        traffic="trace",
        packets=None,
        traffic_params={"n_bursts": 24, "packets_per_burst": 6},
    ),
    dict(traffic="uniform", packets=300, routing="disjoint"),
    dict(traffic="uniform", packets=300, routing="split"),
    # Saturation-parking coverage: shallow buffers at 90% load block
    # whole switches every few cycles (full-block/unblock churn), and
    # 90% load alone starves NIs on about half their inject attempts.
    dict(
        traffic="uniform", packets=300, load=0.9, buffer_depth=1
    ),
    dict(
        traffic="uniform", packets=300, load=0.9, buffer_depth=2
    ),
]


@pytest.mark.parametrize(
    "kwargs", SCENARIOS, ids=lambda k: f"{k.get('traffic')}-"
    f"{k.get('routing', 'overlap')}-{k.get('load', 'def')}"
)
def test_event_kernel_matches_reference(kwargs):
    event, reference = cosimulate(
        lambda: ScenarioSpec(**kwargs).to_platform_config(), cycles=6000
    )
    assert event == reference


def test_parity_under_store_and_forward():
    def config():
        cfg = ScenarioSpec(
            traffic="burst", packets=200, length=4
        ).to_platform_config()
        cfg.switching = "store_and_forward"
        return cfg

    event, reference = cosimulate(config, cycles=5000)
    assert event == reference


def test_parity_with_buffer_sampling():
    """sample_buffers touches every switch every cycle on both paths."""

    def config():
        cfg = ScenarioSpec(traffic="uniform", packets=150).to_platform_config()
        cfg.sample_buffers = True
        return cfg

    event = fresh_platform(config)
    for _ in range(4000):
        event.step()
    reference = fresh_platform(config)
    for _ in range(4000):
        reference.step_reference()
    occ_e = [
        (buf.mean_occupancy, buf.full_fraction)
        for sw in event.network.switches
        for buf in sw.inputs
    ]
    occ_r = [
        (buf.mean_occupancy, buf.full_fraction)
        for sw in reference.network.switches
        for buf in sw.inputs
    ]
    assert occ_e == occ_r
    assert snapshot(event) == snapshot(reference)


def test_mixing_paths_mid_run_is_consistent():
    """Alternating step/step_reference on one network stays coherent."""
    config = lambda: ScenarioSpec(
        traffic="uniform", packets=200
    ).to_platform_config()
    platform = fresh_platform(config)
    net = platform.network
    for k in range(5000):
        if (k // 64) % 2:
            platform.step_reference()
        else:
            platform.step()
        # The active lists hold each component at most once, exactly
        # those whose ``_active`` flag is set.
        for listed, everyone in (
            (net._active_switches, net.switches),
            (net._active_nis, net.nis),
        ):
            assert len({id(c) for c in listed}) == len(listed)
            assert {id(c) for c in listed} == {
                id(c) for c in everyone if c._active
            }
    oracle = fresh_platform(config)
    for _ in range(5000):
        oracle.step_reference()
    assert snapshot(platform) == snapshot(oracle)


class TestParkingParity:
    """Blocked-component parking must be invisible in every result."""

    def test_parking_actually_engages_at_saturation(self):
        """Non-vacuity: at 90% load the event path really does park
        inputs (including whole switches), NIs and backpressured
        generators mid-run — and crucially *partial* parking occurs:
        a switch streams some inputs while others sleep."""
        platform = fresh_platform(
            lambda: ScenarioSpec(
                traffic="uniform", load=0.9, packets=600
            ).to_platform_config()
        )
        saw_input = saw_whole_sw = saw_partial = saw_ni = saw_gen = False
        for _ in range(4000):
            platform.step()
            for sw in platform.network.switches:
                parked = sw.parked_inputs
                if not parked:
                    continue
                saw_input = True
                if sw._scan:
                    # Movable and parked inputs coexisting: the
                    # per-input regime PR 5 adds over whole-component
                    # parking.
                    saw_partial = True
                elif sw.buffered_flits:
                    saw_whole_sw = True
            saw_ni = saw_ni or any(
                ni._parked for ni in platform.network.nis
            )
            saw_gen = saw_gen or any(
                g._bp_since is not None for g in platform.generators
            )
        assert saw_input and saw_partial and saw_ni and saw_gen
        assert saw_whole_sw  # fully blocked switches still leave the set

    @pytest.mark.parametrize("reset_cycle", [500, 1777, 3000])
    def test_reset_while_parked_matches_reference(self, reset_cycle):
        """A statistics reset mid-run lands on parked components (the
        90%-load case keeps some parked at any time); the settled
        counters afterwards must match the scan-everything path doing
        the same reset."""

        def config():
            return ScenarioSpec(
                traffic="uniform", load=0.9, packets=400
            ).to_platform_config()

        snaps = []
        for reference in (False, True):
            platform = fresh_platform(config)
            step = (
                platform.step_reference if reference else platform.step
            )
            for k in range(6000):
                if k == reset_cycle:
                    platform.reset_statistics()
                step()
            snaps.append(snapshot(platform))
        assert snaps[0] == snaps[1]

    def test_full_block_unblock_cycles_match_reference(self):
        """depth-1 buffers at 90% load force constant whole-switch
        block/unblock churn through the parking paths."""
        event, reference = cosimulate(
            lambda: ScenarioSpec(
                traffic="uniform",
                load=0.9,
                packets=250,
                buffer_depth=1,
            ).to_platform_config(),
            cycles=5000,
        )
        assert event == reference

    def test_backpressure_parking_matches_per_cycle_ticking(self):
        """Generator backpressure settlement must equal the seed-style
        per-cycle ticking: the same platform stepped with generator
        parking disabled (no clock) produces identical statistics."""

        def config():
            cfg = ScenarioSpec(
                traffic="uniform", load=0.9, packets=300
            ).to_platform_config()
            for tg in cfg.tgs:
                tg.queue_limit = 24  # tight queue: heavy backpressure
            return cfg

        parked = fresh_platform(config)
        for _ in range(5000):
            parked.step()
        ticking = fresh_platform(config)
        for generator in ticking.generators:
            generator._clock = None  # disables backpressure parking
        for _ in range(5000):
            ticking.step()
        assert any(
            g.backpressure_cycles > 0 for g in parked.generators
        )
        assert snapshot(parked) == snapshot(ticking)

    def window_records(self, make_config, reference, cycles, window,
                       schedule=None):
        """Both kernels drive WindowedMetrics exactly as the engine
        does: advance at the top of the cycle, fault tick after."""
        from repro.telemetry import WindowedMetrics

        platform = fresh_platform(make_config)
        injector = None
        if schedule is not None:
            from repro.faults import FaultInjector

            injector = FaultInjector(schedule, platform)
            injector.begin(platform.cycle)
        telemetry = WindowedMetrics(platform, window)
        net = platform.network
        step = platform.step_reference if reference else platform.step
        tel_next = telemetry.begin(net.cycle)
        for _ in range(cycles):
            now = net.cycle
            if now >= tel_next:
                tel_next = telemetry.advance(now)
            if injector is not None:
                injector.tick(now)
            step()
        telemetry.finish(net.cycle)
        return telemetry.records

    def test_window_deltas_while_parked_match_reference(self):
        """The settle-on-read discipline the windows difference over
        must hold mid-parking: boundary snapshots taken while inputs,
        NIs and generators sleep equal the scan-everything kernel's."""

        def config():
            return ScenarioSpec(
                traffic="uniform", load=0.9, packets=400
            ).to_platform_config()

        event = self.window_records(config, False, 5000, window=257)
        reference = self.window_records(config, True, 5000, window=257)
        assert event == reference
        assert any(w.parked_inputs > 0 for w in event)  # non-vacuous

    def test_window_deltas_across_fault_match_reference(self):
        """A fault applied mid-window (aborts, credit refunds, drops)
        must land in the same window with the same deltas on both
        kernels."""
        from repro.faults import FaultSchedule, link_down

        schedule = FaultSchedule.of(
            link_down(600, 1, 4), link_down(600, 4, 1)
        )

        def config():
            return ScenarioSpec(
                traffic="uniform", load=0.9, packets=400
            ).to_platform_config()

        event = self.window_records(
            config, False, 5000, window=257, schedule=schedule
        )
        reference = self.window_records(
            config, True, 5000, window=257, schedule=schedule
        )
        assert event == reference
        assert any(w.fault_dropped_flits > 0 for w in event)

    def test_window_deltas_across_ff_jump_match_reference(self):
        """An engine run (fast-forward on, jumps landing on window
        boundaries) must emit the same series as a per-cycle
        reference-kernel loop over the same idle-heavy scenario."""
        from repro.telemetry import WindowedMetrics

        def config():
            return ScenarioSpec(
                traffic="trace",
                packets=None,
                traffic_params={
                    "n_bursts": 6,
                    "packets_per_burst": 4,
                    "gap": 2500,
                },
            ).to_platform_config()

        platform = fresh_platform(config)
        telemetry = WindowedMetrics(platform, 300)
        result = EmulationEngine(platform, telemetry=telemetry).run()
        manual = self.window_records(
            config, True, result.cycles, window=300
        )
        assert list(result.windows) == manual
        # Non-vacuous: the gaps really produced skipped windows.
        assert any(
            w.injected_flits == 0 and w.forwarded_flits == 0
            for w in result.windows
        )


class TestFastForwardParity:
    """Idle fast-forward must be invisible in every result."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(traffic="poisson", load=0.02, packets=150),
            dict(traffic="onoff", load=0.05, packets=150),
            dict(traffic="burst", load=0.1, packets=150),
            dict(
                traffic="trace",
                packets=None,
                traffic_params={
                    "n_bursts": 12,
                    "packets_per_burst": 4,
                    "gap": 900,
                },
            ),
        ],
        ids=["poisson", "onoff", "burst", "trace"],
    )
    def test_engine_results_identical_with_and_without_ff(self, kwargs):
        with_ff = EmulationEngine(
            build_platform(ScenarioSpec(**kwargs).to_platform_config())
        ).run(fast_forward=True)
        without = EmulationEngine(
            build_platform(ScenarioSpec(**kwargs).to_platform_config())
        ).run(fast_forward=False)
        assert with_ff.cycles == without.cycles
        assert with_ff.packets_sent == without.packets_sent
        assert with_ff.packets_received == without.packets_received
        assert with_ff.completed and without.completed

    def test_ff_actually_skips_idle_cycles(self):
        platform = build_platform(
            ScenarioSpec(
                traffic="onoff", load=0.02, packets=100
            ).to_platform_config()
        )
        stepped = 0
        network = platform.network
        original = network.step

        def counting_step():
            nonlocal stepped
            stepped += 1
            return original()

        network.step = counting_step
        result = EmulationEngine(platform).run()
        assert result.completed
        # The vast idle majority of emulated time was never stepped.
        assert stepped < result.cycles / 2

    def test_ff_delivers_credits_due_at_the_jump_cycle(self):
        """Regression: `_flush_credits_until` used to start at offset
        1, skipping credits due exactly at the current (unprocessed)
        cycle — reachable with link delay >= 2, where a pop at c-1
        schedules a credit for c+1 while the fabric goes quiescent at
        c+1.  Every credit counter must match the fast_forward=False
        run after each burst."""
        from repro.core.config import (
            PlatformConfig,
            TGSpec,
            TRSpec,
        )
        from repro.noc.topology import mesh

        def config():
            return PlatformConfig(
                topology=mesh(2, 2, link_delay=2),
                routing="shortest",
                tgs=[
                    TGSpec(
                        node=0,
                        model="onoff",
                        params={
                            "length": 4,
                            "dst": 3,
                            "packets_per_burst": 2,
                            "load": 0.02,
                        },
                        max_packets=40,
                        seed=7,
                    )
                ],
                trs=[TRSpec(node=3)],
            )

        def credit_state(platform):
            return [
                [
                    sw.output_credits(p)
                    for p in range(sw.config.n_outputs)
                ]
                for sw in platform.network.switches
            ] + [ni._credits for ni in platform.network.nis]

        with_ff = EmulationEngine(build_platform(config())).run(
            fast_forward=True
        )
        without = EmulationEngine(build_platform(config())).run(
            fast_forward=False
        )
        assert with_ff.cycles == without.cycles
        assert with_ff.packets_received == without.packets_received
        # Rebuild and co-simulate step-by-step around the jumps so the
        # credit counters are compared at matching cycles.
        ff_platform = build_platform(config())
        plain = build_platform(config())
        engine = EmulationEngine(ff_platform)
        engine.run(max_cycles=4000)
        while plain.cycle < ff_platform.cycle:
            plain.step()
        assert credit_state(ff_platform) == credit_state(plain)

    def test_max_cycles_limit_respected_across_jumps(self):
        platform = build_platform(
            ScenarioSpec(
                traffic="poisson", load=0.001, packets=10_000
            ).to_platform_config()
        )
        result = EmulationEngine(platform).run(max_cycles=5000)
        assert result.cycles == 5000
