"""F3 — congestion rate vs packets/burst (Slide 21).

Trace-driven experiment: the platform replays synthetic burst traces
whose two structural knobs are swept exactly as in the paper's figure —
**packets per burst** on the x-axis, **flits per packet** as the series
parameter ("measure of congestion according to burst's length in
flits").  The congestion rate is the network-wide fraction of blocked
switch-traversal attempts.

The scenarios are ``benchmarks/sweeps/fig_congestion_vs_burst.json``:
the figure's grid, each point a 1024-packet budget per TG at 45%
offered load, plus one 64-packet-burst point for the saturation claim.

Expected shape: congestion increases with packets/burst and with
flits/packet, saturating for long bursts.
"""

import pytest

from benchmarks.conftest import emit, figure_results
from repro.experiments import render_table

pytestmark = pytest.mark.perf

FIGURE = "fig_congestion_vs_burst"

PACKETS_PER_BURST = (1, 2, 4, 8, 16, 32)
FLITS_PER_PACKET = (2, 4, 8, 16)


@pytest.fixture(scope="module")
def congestion():
    """Congestion rate per (packets/burst, flits/packet) point."""
    points = {}
    for result in figure_results(FIGURE):
        params = dict(result.spec.traffic_params)
        point = (params["packets_per_burst"], params["flits_per_packet"])
        points[point] = result.metrics["congestion_rate"]
    return points


def test_fig_congestion_vs_packets_per_burst(congestion):
    matrix = {
        fpp: [congestion[ppb, fpp] for ppb in PACKETS_PER_BURST]
        for fpp in FLITS_PER_PACKET
    }
    emit(
        FIGURE,
        render_table(
            [
                {
                    "packets/burst": ppb,
                    **{
                        f"{fpp} flits/pkt": f"{matrix[fpp][i]:.4f}"
                        for fpp in FLITS_PER_PACKET
                    },
                }
                for i, ppb in enumerate(PACKETS_PER_BURST)
            ]
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


def test_fig_congestion_saturates_for_long_bursts(congestion):
    """The marginal congestion gain shrinks as bursts get longer."""
    a, b, c = (congestion[ppb, 8] for ppb in (1, 8, 64))
    first_gain = b - a
    second_gain = c - b
    assert first_gain > 0
    assert second_gain < first_gain
