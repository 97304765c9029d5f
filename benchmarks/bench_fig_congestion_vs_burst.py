"""F3 — congestion rate vs packets/burst (Slide 21).

Trace-driven experiment: the platform replays synthetic burst traces
whose two structural knobs are swept exactly as in the paper's figure —
**packets per burst** on the x-axis, **flits per packet** as the series
parameter ("measure of congestion according to burst's length in
flits").  The congestion rate is the network-wide fraction of blocked
switch-traversal attempts.

Expected shape: congestion increases with packets/burst and with
flits/packet, saturating for long bursts.
"""

import pytest

from benchmarks.conftest import emit, format_table
from repro.core.engine import EmulationEngine
from repro.core.platform import build_platform
from repro.experiments.spec import ScenarioSpec

pytestmark = pytest.mark.perf

PACKETS_PER_BURST = (1, 2, 4, 8, 16, 32)
FLITS_PER_PACKET = (2, 4, 8, 16)

#: Total packets per generator at each point (keeps run times even).
PACKET_BUDGET = 1024


def run_point(ppb: int, fpp: int) -> float:
    """Congestion rate for one (packets/burst, flits/packet) point."""
    n_bursts = max(1, PACKET_BUDGET // ppb)
    gap = round(ppb * fpp * 0.55 / 0.45)  # keep offered load at 45%
    platform = build_platform(
        ScenarioSpec(
            traffic="trace",
            packets=None,
            length=fpp,
            traffic_params={
                "n_bursts": n_bursts,
                "packets_per_burst": ppb,
                "flits_per_packet": fpp,
                "gap": gap,
            },
        ).to_platform_config()
    )
    result = EmulationEngine(platform).run()
    assert result.completed
    return platform.congestion_rate()


def test_fig_congestion_vs_packets_per_burst(benchmark):
    matrix = {
        fpp: [run_point(ppb, fpp) for ppb in PACKETS_PER_BURST]
        for fpp in FLITS_PER_PACKET
    }
    rows = [
        (ppb,)
        + tuple(
            f"{matrix[fpp][i]:.4f}" for fpp in FLITS_PER_PACKET
        )
        for i, ppb in enumerate(PACKETS_PER_BURST)
    ]
    emit(
        "fig_congestion_vs_burst",
        format_table(
            ["packets/burst"]
            + [f"{fpp} flits/pkt" for fpp in FLITS_PER_PACKET],
            rows,
        ),
    )

    # Shape 1: congestion grows with packets/burst for every series
    # (allowing saturation at the top end: non-strict at the tail).
    for fpp in FLITS_PER_PACKET:
        series = matrix[fpp]
        assert series[0] < series[2] < series[-1] + 1e-9
        assert series[-1] >= series[0]

    # Shape 2: longer packets congest more at every burst length.
    for i in range(len(PACKETS_PER_BURST)):
        column = [matrix[fpp][i] for fpp in FLITS_PER_PACKET]
        assert column == sorted(column)

    # Shape 3: everything stays a rate.
    assert all(
        0.0 <= v < 1.0 for series in matrix.values() for v in series
    )

    # Timed kernel: the cheapest point.
    benchmark(
        lambda: run_point(PACKETS_PER_BURST[0], FLITS_PER_PACKET[0])
    )


def test_fig_congestion_saturates_for_long_bursts(benchmark):
    """The marginal congestion gain shrinks as bursts get longer."""

    def gains():
        a = run_point(1, 8)
        b = run_point(8, 8)
        c = run_point(64, 8)
        return a, b, c

    a, b, c = benchmark.pedantic(gains, rounds=1, iterations=1)
    first_gain = b - a
    second_gain = c - b
    assert first_gain > 0
    assert second_gain < first_gain
