"""F2 — run-time vs number of sent packets (Slide 20).

The paper's first experimental figure runs the stochastic platform and
plots emulation run-time against the number of sent packets for the
uniform and burst traffic models, observing that run-time is linear in
the packet count and that "burst traffic creates more congestion on
the NoC than uniform traffic".

The scenarios are ``benchmarks/sweeps/fig_runtime_vs_packets.json``;
the regenerated series reports, per (model, packets) point: emulated
cycles, emulated time at the 50 MHz platform clock, and the measured
congestion rate.
"""

import pytest

from benchmarks.conftest import emit, figure_results
from repro.experiments import render_table
from repro.stats.runtime import format_duration

pytestmark = pytest.mark.perf

FIGURE = "fig_runtime_vs_packets"


@pytest.fixture(scope="module")
def series():
    """Each traffic model's metric records, in packet-budget order."""
    out = {}
    for result in figure_results(FIGURE):
        out.setdefault(result.spec.traffic, []).append(result.metrics)
    return out


def test_fig_runtime_vs_packets(series):
    uniform, burst = series["uniform"], series["burst"]
    rows = []
    for u, b in zip(uniform, burst):
        row = {"sent packets": u["packets_sent"]}
        for name, m in (("uniform", u), ("burst", b)):
            row[f"{name} cycles"] = m["cycles"]
            row[f"{name} @50MHz"] = format_duration(m["emulated_seconds"])
            row[f"{name} congestion"] = f"{m['congestion_rate']:.4f}"
        rows.append(row)
    emit(FIGURE, render_table(rows))

    # Shape 1: run-time linear in sent packets (both models).
    for points in (uniform, burst):
        cycles = [m["cycles"] for m in points]
        for i in range(len(cycles) - 1):
            growth = cycles[i + 1] / cycles[i]
            assert growth == pytest.approx(2.0, rel=0.25), points

    # Shape 2: burst congests more than uniform at every point.
    for u, b in zip(uniform, burst):
        assert b["congestion_rate"] > u["congestion_rate"]


def test_fig_runtime_burst_tail_is_longer(series):
    """Bursts also stretch the drain tail: same packet budget takes
    more cycles end-to-end under burst traffic."""
    (u,) = [m for m in series["uniform"] if m["packets_sent"] == 4 * 500]
    (b,) = [m for m in series["burst"] if m["packets_sent"] == 4 * 500]
    assert b["cycles"] > u["cycles"] * 0.95  # never meaningfully faster
