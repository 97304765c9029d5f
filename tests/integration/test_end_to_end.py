"""End-to-end integration: full flow runs, conservation, figure shapes.

These tests assert the qualitative *shapes* of the paper's figures
(burst congests more than uniform; congestion grows with burst length
and flits/packet; latency saturates), which EXPERIMENTS.md reports
quantitatively.
"""

import pytest

from repro.core.engine import EmulationEngine
from repro.core.flow import EmulationFlow
from repro.core.platform import build_platform
from repro.experiments.spec import ScenarioSpec
from repro.stats.summary import scenario_metrics


def run(traffic="uniform", packets=800, **kwargs):
    platform = build_platform(
        ScenarioSpec(
            traffic=traffic, packets=packets, **kwargs
        ).to_platform_config()
    )
    result = EmulationEngine(platform).run()
    return platform, result


def metrics(**kwargs):
    return scenario_metrics(*run(**kwargs))


class TestConservation:
    @pytest.mark.parametrize("traffic", ["uniform", "burst", "poisson"])
    def test_every_packet_arrives_exactly_once(self, traffic):
        platform, result = run(traffic=traffic, packets=300)
        assert result.completed
        assert platform.packets_sent == platform.packets_received
        sent_flits = sum(g.flits_sent for g in platform.generators)
        recv_flits = sum(
            r.flits_received for r in platform.receptors
        )
        assert sent_flits == recv_flits

    def test_receptors_only_see_their_flow(self):
        platform, _ = run(packets=200)
        from repro.noc.topology import paper_flow_pairs

        per_node = {
            r.node: r.packets_received for r in platform.receptors
        }
        for _, dst in paper_flow_pairs():
            assert per_node[dst] == 200


class TestFigureShapes:
    def test_f2_burst_congests_more_than_uniform(self):
        """Slide 20: 'Burst traffic creates more congestion on the NoC
        than uniform traffic' at the same offered load."""
        uniform = metrics(traffic="uniform", packets=1200)
        burst = metrics(traffic="burst", packets=1200)
        assert burst["congestion_rate"] > uniform["congestion_rate"]

    def test_f2_runtime_grows_linearly_with_packets(self):
        """Slide 20: run-time vs number of sent packets is ~linear."""
        cycles = []
        for n in (400, 800, 1600):
            _, result = run(packets=n)
            cycles.append(result.cycles)
        ratio1 = cycles[1] / cycles[0]
        ratio2 = cycles[2] / cycles[1]
        assert ratio1 == pytest.approx(2.0, rel=0.15)
        assert ratio2 == pytest.approx(2.0, rel=0.15)

    def test_f3_congestion_grows_with_packets_per_burst(self):
        """Slide 21 x-axis: packets per burst."""
        rates = []
        for ppb in (1, 8, 32):
            rates.append(metrics(
                traffic="trace",
                packets=None,
                traffic_params={
                    "n_bursts": max(4, 256 // ppb),
                    "packets_per_burst": ppb,
                },
            )["congestion_rate"])
        assert rates[0] < rates[1] < rates[2]

    def test_f3_congestion_grows_with_flits_per_packet(self):
        """Slide 21 series: flits per packet."""
        rates = []
        for flits in (2, 16):
            rates.append(metrics(
                traffic="trace",
                packets=None,
                length=flits,
                traffic_params={
                    "n_bursts": 64,
                    "packets_per_burst": 8,
                    "flits_per_packet": flits,
                    "gap": round(8 * flits * 0.55 / 0.45),
                },
            )["congestion_rate"])
        assert rates[0] < rates[1]

    def test_f4_latency_grows_then_saturates(self):
        """Slide 22: average latency rises with packets/burst and
        reaches a maximum bounded by the finite TG queues."""
        latencies = []
        for ppb in (1, 16, 64, 128):
            latencies.append(metrics(
                traffic="trace",
                packets=None,
                traffic_params={
                    "n_bursts": max(2, 512 // ppb),
                    "packets_per_burst": ppb,
                },
            )["mean_latency"])
        assert latencies[0] < latencies[1] < latencies[2]
        # Saturation: the last doubling gains far less than the first.
        first_gain = latencies[1] / latencies[0]
        last_gain = latencies[3] / latencies[2]
        assert last_gain < first_gain


class TestTorusSaturation:
    def test_saturated_torus_completes_without_deadlock(self, monkeypatch):
        """Regression for the routing="auto" torus default: under BFS
        shortest paths a saturated torus either failed the build-time
        channel-dependency check or wormhole-deadlocked mid-run; the
        up*/down* default must complete and drain at full load."""
        monkeypatch.setattr("repro.core.engine.STAGNATION_CYCLES", 20_000)
        platform = build_platform(
            ScenarioSpec(
                topology="torus:4:4",
                load=0.9,
                packets=40,
                seed=3,
            ).to_platform_config()
        )
        result = EmulationEngine(platform).run()
        assert result.completed
        assert platform.packets_sent == platform.packets_received
        assert platform.packets_received == 16 * 40


class TestFullFlowEndToEnd:
    def test_flow_sweep_with_report_artifacts(self):
        flow = EmulationFlow()
        reports = [
            flow.run(ScenarioSpec(packets=100, seed=s).to_platform_config())
            for s in (1, 2)
        ]
        assert flow.synthesis_runs == 1
        for report in reports:
            assert report.result.completed
            assert "emulation report" in report.report_text
            assert report.synthesis.clock_hz == pytest.approx(50e6)
