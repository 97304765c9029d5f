"""F2 — run-time vs number of sent packets (Slide 20).

The paper's first experimental figure runs the stochastic platform and
plots emulation run-time against the number of sent packets for the
uniform and burst traffic models, observing that run-time is linear in
the packet count and that "burst traffic creates more congestion on
the NoC than uniform traffic".

The regenerated series reports, per (model, packets) point: emulated
cycles, emulated time at the 50 MHz platform clock, and the measured
congestion rate.
"""

import pytest

from benchmarks.conftest import emit, format_table
from repro.core.engine import EmulationEngine
from repro.core.platform import build_platform
from repro.experiments.spec import ScenarioSpec
from repro.stats.runtime import format_duration

pytestmark = pytest.mark.perf

#: Packets per generator at each sweep point (x-axis).
SWEEP_PACKETS = (250, 500, 1000, 2000, 4000)


def run_point(traffic: str, packets: int):
    platform = build_platform(
        ScenarioSpec(
            traffic=traffic, packets=packets, seed=3
        ).to_platform_config()
    )
    result = EmulationEngine(platform).run()
    assert result.completed
    return platform, result


def sweep(traffic: str):
    series = []
    for packets in SWEEP_PACKETS:
        platform, result = run_point(traffic, packets)
        series.append(
            {
                "packets": 4 * packets,  # platform-wide sent packets
                "cycles": result.cycles,
                "emulated": format_duration(result.emulated_seconds),
                "congestion": platform.congestion_rate(),
            }
        )
    return series


def test_fig_runtime_vs_packets(benchmark):
    uniform = sweep("uniform")
    burst = sweep("burst")

    rows = []
    for u, b in zip(uniform, burst):
        rows.append(
            (
                u["packets"],
                u["cycles"],
                u["emulated"],
                f"{u['congestion']:.4f}",
                b["cycles"],
                b["emulated"],
                f"{b['congestion']:.4f}",
            )
        )
    emit(
        "fig_runtime_vs_packets",
        format_table(
            [
                "sent packets",
                "uniform cycles",
                "uniform @50MHz",
                "uniform congestion",
                "burst cycles",
                "burst @50MHz",
                "burst congestion",
            ],
            rows,
        ),
    )

    # Shape 1: run-time linear in sent packets (both models).
    for series in (uniform, burst):
        cycles = [p["cycles"] for p in series]
        for i in range(len(cycles) - 1):
            growth = cycles[i + 1] / cycles[i]
            assert growth == pytest.approx(2.0, rel=0.25), series

    # Shape 2: burst congests more than uniform at every point.
    for u, b in zip(uniform, burst):
        assert b["congestion"] > u["congestion"]

    # Timed kernel: the smallest sweep point, uniform model.
    benchmark(lambda: run_point("uniform", SWEEP_PACKETS[0]))


def test_fig_runtime_burst_tail_is_longer(benchmark):
    """Bursts also stretch the drain tail: same packet budget takes
    more cycles end-to-end under burst traffic."""

    def both():
        _, u = run_point("uniform", 500)
        _, b = run_point("burst", 500)
        return u, b

    u, b = benchmark.pedantic(both, rounds=1, iterations=1)
    assert b.cycles > u.cycles * 0.95  # never meaningfully faster
