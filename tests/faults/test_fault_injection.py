"""Engine-level fault injection: completion, degradation, reporting."""

import pytest

from repro.core.config import PlatformConfig, TGSpec, TRSpec
from repro.core.engine import DegradedResult, EmulationEngine
from repro.core.errors import EmulationError, UnroutableError
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
from repro.noc.topology import mesh
from repro.stats.summary import scenario_metrics


def paper_platform(packets=60, **spec_kwargs):
    spec = ScenarioSpec(topology="paper", packets=packets, **spec_kwargs)
    return build_platform(spec.to_platform_config())


class TestLinkDown:
    def test_mid_run_failure_completes_via_reroute(self):
        platform = paper_platform()
        schedule = FaultSchedule.of(link_down(300, 1, 4), link_down(300, 4, 1))
        result = EmulationEngine(platform, faults=schedule).run()
        assert result.completed
        assert not isinstance(result, DegradedResult)
        report = result.faults
        assert report is not None and not report.degraded
        assert [e.kind for e in report.events] == ["link_down"] * 2
        assert all(e.repaired for e in report.events)
        # Recovery observed: traffic flowed again after the fault.
        assert any(e.recovery_cycles is not None for e in report.events)
        # The drain left nothing parked anywhere.
        assert platform.network.is_drained
        assert not platform.network.parked_report()

    def test_dead_link_carries_nothing_after_the_fault(self):
        platform = paper_platform()
        schedule = FaultSchedule.of(link_down(300, 1, 4))
        injector = FaultInjector(schedule, platform)
        injector.begin(0)
        link = platform.network.link_between(1, 4)
        carried_at_fault = None
        for _ in range(4000):
            now = platform.network.cycle
            injector.tick(now)
            if carried_at_fault is None and now >= 300:
                assert link.down
                carried_at_fault = link.flits_carried
            platform.step()
        assert carried_at_fault is not None and carried_at_fault > 0
        assert link.flits_carried == carried_at_fault
        assert link.wire_count == 0
        assert link.flits_dropped > 0 or link.wire_count == 0

    def test_no_parked_input_awaits_a_dead_link(self):
        """Acceptance: every parked input whose wake event was
        invalidated by the fault is settled and re-armed — after the
        repair cycle no input sleeps on a down output."""
        platform = paper_platform()
        schedule = FaultSchedule.of(link_down(300, 1, 4), link_down(300, 4, 1))
        injector = FaultInjector(schedule, platform)
        injector.begin(0)
        for _ in range(4000):
            now = platform.network.cycle
            injector.tick(now)
            platform.step()
            if now < 300:
                continue
            for sw in platform.network.switches:
                for i, parked in enumerate(sw._in_parked):
                    if not parked:
                        continue
                    out = sw._input_out[i]
                    if out is not None and out.link is not None:
                        assert not out.link.down

    def test_heal_restores_the_link(self):
        """Down/up on the only route of a two-switch fabric, with
        repair disabled: resumption relies purely on the credit
        restore of ``link_up`` (saved ``_input_credit`` entry,
        re-baselined upstream credits, waiter wake)."""
        config = PlatformConfig(
            topology=mesh(2, 1),
            routing="shortest",
            tgs=[
                TGSpec(
                    node=0,
                    model="uniform",
                    params={"length": 4, "dst": 1, "load": 0.3},
                    max_packets=120,
                    seed=3,
                )
            ],
            trs=[TRSpec(node=1)],
        )
        platform = build_platform(config)
        schedule = FaultSchedule.of(
            link_down(200, 0, 1), link_up(1200, 0, 1), repair=False
        )
        result = EmulationEngine(platform, faults=schedule).run()
        assert result.completed
        assert not isinstance(result, DegradedResult)
        link = platform.network.link_between(0, 1)
        assert not link.down
        assert link.flits_dropped > 0  # the fault really cut traffic
        windows = result.faults.windows
        down = next(w for w in windows if w.label.startswith("after link_down"))
        after = windows[windows.index(down) + 1]
        # Nothing moved while the only route was dead; healing it
        # restored full delivery.
        assert down.packets_received <= 1
        assert after.packets_received > 0
        assert result.packets_received == 120 - result.faults.dropped_packets

    def test_per_window_throughput_reported(self):
        platform = paper_platform()
        schedule = FaultSchedule.of(link_down(300, 1, 4))
        result = EmulationEngine(platform, faults=schedule).run()
        report = result.faults
        assert [w.label for w in report.windows][0] == "pre-fault"
        assert report.windows[0].start == 0
        assert report.windows[0].end == 300
        # Windows tile the run without gaps.
        for prev, cur in zip(report.windows, report.windows[1:]):
            assert cur.start == prev.end
        assert report.windows[-1].end == result.cycles
        assert sum(w.packets_received for w in report.windows) == (
            result.packets_received
        )


class TestHealedLink:
    """Once the last dead pair is back up, repair reinstalls the
    platform's configured routing, so the healed link carries its
    flows again (the paper cases route nodes 6 and 7 over 1->4)."""

    @staticmethod
    def hot_link_and_row(schedule, cycles):
        platform = paper_platform(packets=None, load=0.9, seed=2)
        EmulationEngine(platform, faults=schedule).run(
            max_cycles=cycles, finalize=False
        )
        network = platform.network
        return (
            network.switch_links[(1, 4)][0].flits_carried,
            list(network.switches[1]._route_dense),
        )

    def test_healed_link_carries_flits_on_the_configured_row(self):
        schedule = FaultSchedule.of(
            link_down(300, 1, 4),
            link_down(300, 4, 1),
            link_up(700, 1, 4),
            link_up(700, 4, 1),
        )
        at_heal, _ = self.hot_link_and_row(schedule, 700)
        carried, row = self.hot_link_and_row(schedule, 3000)
        _, healthy_row = self.hot_link_and_row(None, 3000)
        assert carried > at_heal
        assert row == healthy_row


class TestSwitchDown:
    def test_nodeless_switch_death_completes(self):
        # Paper switches 1 and 4 host no nodes: killing one reroutes
        # every flow without orphaning any endpoint.
        platform = paper_platform()
        schedule = FaultSchedule.of(switch_down(400, 1))
        result = EmulationEngine(platform, faults=schedule).run()
        assert result.completed
        report = result.faults
        assert report.events[0].kind == "switch_down"
        assert report.events[0].repaired
        network = platform.network
        for (a, b), links in network.switch_links.items():
            if a == 1 or b == 1:
                assert all(link.down for link in links)

    def test_corner_switch_death_orphans_its_receptor(self):
        # Switch 0 hosts nodes 0 (TG) and 4 (TR): flows into node 4
        # survive as senders but lose every route — a partition.
        platform = paper_platform()
        schedule = FaultSchedule.of(switch_down(400, 0))
        with pytest.raises(UnroutableError) as excinfo:
            EmulationEngine(platform, faults=schedule).run()
        assert excinfo.value.flows
        assert all(dst == 4 for _src, dst in excinfo.value.flows)
        assert "partitions the fabric" in str(excinfo.value)

    @pytest.mark.parametrize("topology", ["torus:4:4", "ring:6"])
    def test_switch_zero_death_orphans_only_its_nodes(self, topology):
        # Regression: up*/down* repair always rooted at switch 0, so
        # its death severed the whole fabric and the error listed
        # flows between live switches (e.g. 1->2).
        spec = ScenarioSpec(topology=topology, packets=60, load=0.1)
        platform = build_platform(spec.to_platform_config())
        schedule = FaultSchedule.of(switch_down(50, 0))
        with pytest.raises(UnroutableError) as excinfo:
            EmulationEngine(platform, faults=schedule).run()
        flows = excinfo.value.flows
        assert flows
        assert all(dst == 0 for _src, dst in flows)


class TestPartitionRegression:
    def two_node_config(self):
        return PlatformConfig(
            topology=mesh(2, 1),
            routing="shortest",
            tgs=[
                TGSpec(
                    node=0,
                    model="uniform",
                    params={"length": 4, "dst": 1, "load": 0.2},
                    max_packets=200,
                    seed=3,
                )
            ],
            trs=[TRSpec(node=1)],
        )

    def test_cutting_the_only_route_raises_unroutable(self):
        """Regression: a partitioning fault must not stagnate into the
        generic deadlock guard — it names the orphaned flows."""
        platform = build_platform(self.two_node_config())
        schedule = FaultSchedule.of(link_down(200, 0, 1))
        with pytest.raises(UnroutableError) as excinfo:
            EmulationEngine(platform, faults=schedule).run()
        assert excinfo.value.flows == ((0, 1),)

    def test_without_structured_check_it_would_stagnate(self, monkeypatch):
        """The pre-fix behaviour (repair disabled approximates it):
        the flow parks forever and only the watchdog notices."""
        monkeypatch.setattr("repro.core.engine.STAGNATION_CYCLES", 2000)
        platform = build_platform(self.two_node_config())
        schedule = FaultSchedule.of(link_down(200, 0, 1), repair=False)
        result = EmulationEngine(platform, faults=schedule).run()
        assert isinstance(result, DegradedResult)


class TestDegradation:
    def test_unrepaired_fault_degrades_instead_of_raising(self, monkeypatch):
        monkeypatch.setattr("repro.core.engine.STAGNATION_CYCLES", 3000)
        platform = paper_platform()
        schedule = FaultSchedule.of(
            link_down(300, 1, 4), link_down(300, 4, 1), repair=False
        )
        result = EmulationEngine(platform, faults=schedule).run()
        assert isinstance(result, DegradedResult)
        assert not result.completed
        assert "after fault injection" in result.degraded_reason
        assert result.parked  # the stuck inputs are enumerated
        for entry in result.parked:
            assert entry["kind"] in ("switch_input", "ni")
            assert "reason" in entry and "since" in entry
        report = result.faults
        assert report.degraded
        assert report.degraded_reason == result.degraded_reason

    def test_healthy_stagnation_still_raises_with_parked_detail(
        self, monkeypatch
    ):
        """The deadlock guard's error now enumerates parked inputs and
        their awaited wake events."""
        monkeypatch.setattr("repro.core.engine.STAGNATION_CYCLES", 2000)
        platform = paper_platform()
        # Kill the hot links outside any engine-managed schedule: the
        # engine sees a healthy run that stops making progress.
        schedule = FaultSchedule.of(
            link_down(0, 1, 4), link_down(0, 4, 1), repair=False
        )
        injector = FaultInjector(schedule, platform)
        injector.begin(0)
        injector.tick(0)
        with pytest.raises(EmulationError) as excinfo:
            EmulationEngine(platform).run()
        message = str(excinfo.value)
        assert "failed to drain" in message
        assert "parked" in message
        assert "awaits" in message

    def test_degraded_run_keeps_counters_consistent(self, monkeypatch):
        monkeypatch.setattr("repro.core.engine.STAGNATION_CYCLES", 2000)
        platform = paper_platform()
        schedule = FaultSchedule.of(link_down(300, 1, 4), repair=False)
        EmulationEngine(platform, faults=schedule).run()
        network = platform.network
        assert network.in_flight_flits == network.scan_in_flight_flits()


def _window(label, cycles, received, throughput):
    return {
        "label": label,
        "cycles": cycles,
        "packets_received": received,
        "throughput": throughput,
    }


#: Three fault stories on the paper platform, seed 1: a hot link cut
#: mid-run and healed later (two repairs), a lossy window on the same
#: pair, and an unrepaired cut that degrades.  Every field below is a
#: deterministic function of the schedule and is pinned exactly.
FAULT_STORIES = {
    "reroute": (
        FaultSchedule.of(
            link_down(3000, 1, 4),
            link_down(3000, 4, 1),
            link_up(9000, 1, 4),
            link_up(9000, 4, 1),
        ),
        1200,
        {
            "cycles": 21607,
            "packets_sent": 4800,
            "packets_received": 4798,
            "completed": True,
            "degraded": False,
            "dropped_flits": 10,
            "dropped_packets": 2,
            "reroutes": 4,
            "recovery_cycles": [13, 13, None, None],
            "windows": [
                _window("pre-fault", 3000, 664, 0.221333),
                _window("after link_down@3000", 6000, 1332, 0.222),
                _window("after link_up@9000", 12607, 2802, 0.222257),
            ],
        },
    ),
    "flaky": (
        FaultSchedule.of(
            FaultEvent(
                "flaky", 2000, a=1, b=4, until=6000, drop_p=0.1, seed=3
            ),
            FaultEvent(
                "flaky", 2000, a=4, b=1, until=6000, drop_p=0.1, seed=4
            ),
        ),
        1200,
        {
            "cycles": 21607,
            "packets_sent": 4800,
            "packets_received": 4309,
            "completed": True,
            "degraded": False,
            "dropped_flits": 3652,
            "dropped_packets": 491,
            "reroutes": 0,
            "recovery_cycles": [5, 5],
            "windows": [
                _window("pre-fault", 2000, 442, 0.221),
                _window("after flaky@2000", 4000, 399, 0.09975),
                _window("after flaky 4->1@6000", 15607, 3468, 0.222208),
            ],
        },
    ),
    "degraded": (
        FaultSchedule.of(
            link_down(3000, 1, 4), link_down(3000, 4, 1), repair=False
        ),
        600,
        {
            "cycles": 22995,
            "packets_sent": 702,
            "packets_received": 664,
            "completed": False,
            "degraded": True,
            "dropped_flits": 10,
            "dropped_packets": 2,
            "reroutes": 0,
            "recovery_cycles": [None, None],
            "windows": [
                _window("pre-fault", 3000, 664, 0.221333),
                _window("after link_down@3000", 19995, 0, 0.0),
            ],
        },
    ),
}


@pytest.mark.parametrize("story", sorted(FAULT_STORIES))
def test_fault_story_is_pinned(story, monkeypatch):
    monkeypatch.setattr("repro.core.engine.STAGNATION_CYCLES", 20_000)
    schedule, packets, expected = FAULT_STORIES[story]
    platform = paper_platform(packets=packets, seed=1)
    result = EmulationEngine(platform, faults=schedule).run()
    report = result.faults
    assert {
        "cycles": result.cycles,
        "packets_sent": result.packets_sent,
        "packets_received": result.packets_received,
        "completed": result.completed,
        "degraded": report.degraded,
        "dropped_flits": report.dropped_flits,
        "dropped_packets": report.dropped_packets,
        "reroutes": len(report.reroutes),
        "recovery_cycles": [e.recovery_cycles for e in report.events],
        "windows": [
            _window(
                w.label, w.cycles, w.packets_received,
                round(w.throughput, 6),
            )
            for w in report.windows
        ],
    } == expected


class TestMetrics:
    def test_fault_metrics_present_only_when_faulted(self):
        healthy = paper_platform(packets=30)
        result = EmulationEngine(healthy).run()
        metrics = scenario_metrics(healthy, result)
        assert "fault_dropped_flits" not in metrics

        faulted = paper_platform(packets=30)
        schedule = FaultSchedule.of(link_down(300, 1, 4))
        result = EmulationEngine(faulted, faults=schedule).run()
        metrics = scenario_metrics(faulted, result)
        assert metrics["fault_dropped_flits"] == result.faults.dropped_flits
        assert metrics["fault_reroutes"] == len(result.faults.reroutes)
        assert metrics["fault_degraded"] is False
        # Wall-clock repair latency stays out of the record.
        assert not any("wall" in k for k in metrics)

    def test_drop_accounting_balances(self):
        platform = paper_platform()
        schedule = FaultSchedule.of(link_down(300, 1, 4), link_down(300, 4, 1))
        result = EmulationEngine(platform, faults=schedule).run()
        report = result.faults
        assert report.dropped_flits == sum(
            e.dropped_flits for e in report.events
        )
        assert report.dropped_packets == sum(
            e.dropped_packets for e in report.events
        )
        # Wire drops are a subset of all drops (buffers/queues drop too).
        assert sum(report.per_link_drops.values()) <= report.dropped_flits
        assert sum(
            link.flits_dropped for link in platform.network.links
        ) == sum(report.per_link_drops.values())


class TestCli:
    def test_run_with_fail_link_flag(self, capsys):
        from repro.cli import main

        code = main(
            [
                "run",
                "--packets",
                "30",
                "--fail-link",
                "1:4@300",
                "--fail-link",
                "4:1@300",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "faults:" in out
        assert "--- faults ---" not in out  # rendered once
        assert "@300    link_down 1->4: dropped" in out
        assert "@300    link_down 4->1: dropped" in out

    def test_bad_fault_flag_is_a_usage_error(self, capsys):
        from repro.cli import main

        code = main(["run", "--packets", "10", "--fail-link", "oops"])
        assert code == 2
        assert "expected SWITCH:SWITCH@CYCLE" in capsys.readouterr().err
