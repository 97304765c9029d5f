"""F4 — average latency vs packets/burst (Slide 22).

Trace-driven experiment: average packet latency (generation to
reception, the latency analyzer's definition) against packets per
burst.  The paper observes that "the latency reaches a maximum [which]
is a function of the congestion rate (90%)": with finite TG queues the
worst-case sojourn is bounded by queue depth over the drain rate of
the 90%-loaded links, so the curve rises and then flattens.

The regenerated series reports mean and max latency per point plus the
hot-link load that sets the ceiling.
"""

import pytest

from benchmarks.conftest import emit, format_table
from repro.core.engine import EmulationEngine
from repro.core.platform import build_platform
from repro.experiments.spec import ScenarioSpec
from repro.noc.topology import paper_hot_links

pytestmark = pytest.mark.perf

PACKETS_PER_BURST = (1, 2, 4, 8, 16, 32, 64, 128)
FLITS_PER_PACKET = 8
PACKET_BUDGET = 1024


def run_point(ppb: int):
    n_bursts = max(1, PACKET_BUDGET // ppb)
    gap = round(ppb * FLITS_PER_PACKET * 0.55 / 0.45)
    platform = build_platform(
        ScenarioSpec(
            traffic="trace",
            packets=None,
            length=FLITS_PER_PACKET,
            traffic_params={
                "n_bursts": n_bursts,
                "packets_per_burst": ppb,
                "flits_per_packet": FLITS_PER_PACKET,
                "gap": gap,
            },
        ).to_platform_config()
    )
    result = EmulationEngine(platform).run()
    assert result.completed
    loads = platform.network.link_loads()
    hot = max(loads[pair] for pair in paper_hot_links())
    return {
        "mean": platform.mean_latency(),
        "max": platform.max_latency(),
        "hot_link": hot,
    }


def test_fig_latency_vs_packets_per_burst(benchmark):
    series = [run_point(ppb) for ppb in PACKETS_PER_BURST]
    rows = [
        (
            ppb,
            f"{p['mean']:.1f}",
            p["max"],
            f"{p['hot_link']:.2f}",
        )
        for ppb, p in zip(PACKETS_PER_BURST, series)
    ]
    emit(
        "fig_latency_vs_burst",
        format_table(
            [
                "packets/burst",
                "mean latency (cycles)",
                "max latency",
                "hot link load",
            ],
            rows,
        ),
    )

    means = [p["mean"] for p in series]
    # Shape 1: latency rises monotonically with burst length.
    assert all(a < b for a, b in zip(means, means[1:]))
    # Shape 1b: ...and saturates at the tail — the last doubling gains
    # far less than the steepest doubling in the middle of the curve.
    gains = [b - a for a, b in zip(means, means[1:])]
    assert gains[-1] < max(gains) * 0.5
    # The *maximum* latency hits its hard ceiling outright.
    maxima = [p["max"] for p in series]
    assert maxima[-1] == maxima[-2]

    # Shape 2: the ceiling appears while the hot links run near the
    # paper's 90% operating point during bursts.
    assert series[-1]["hot_link"] > 0.3

    # Shape 3: the saturated mean stays bounded by the structural
    # maximum (source queue + worst drain), not growing without limit.
    assert means[-1] < means[-2] * 1.5

    benchmark(lambda: run_point(PACKETS_PER_BURST[0]))


def test_fig_latency_max_bounded_by_queue_depth(benchmark):
    """Halving the TG queue lowers the latency ceiling — the
    mechanism behind the paper's saturating maximum."""

    def at_queue(limit):
        platform = build_platform(
            ScenarioSpec(
                traffic="trace",
                packets=None,
                length=FLITS_PER_PACKET,
                traffic_params={
                    "n_bursts": 16,
                    "packets_per_burst": 64,
                    "flits_per_packet": FLITS_PER_PACKET,
                    "gap": round(64 * FLITS_PER_PACKET * 0.55 / 0.45),
                },
            ).to_platform_config()
        )
        for generator in platform.generators:
            generator.queue_limit = limit
        EmulationEngine(platform).run()
        return platform.mean_latency()

    def both():
        return at_queue(32), at_queue(128)

    small, large = benchmark.pedantic(both, rounds=1, iterations=1)
    assert small < large
