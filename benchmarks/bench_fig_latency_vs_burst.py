"""F4 — average latency vs packets/burst (Slide 22).

Trace-driven experiment: average packet latency (generation to
reception, the latency analyzer's definition) against packets per
burst.  The paper observes that "the latency reaches a maximum [which]
is a function of the congestion rate (90%)": with finite TG queues the
worst-case sojourn is bounded by queue depth over the drain rate of
the 90%-loaded links, so the curve rises and then flattens.

The scenarios are ``benchmarks/sweeps/fig_latency_vs_burst.json``
(a 1024-packet budget per TG at 45% offered load); the regenerated
series reports mean and max latency per point plus the hot-link load
that sets the ceiling.  The metric record holds no link loads, so each
point runs once more on a built platform to read them.
"""

import pytest

from benchmarks.conftest import emit, figure_results, figure_specs
from repro.core.engine import EmulationEngine
from repro.core.platform import build_platform
from repro.experiments import render_table
from repro.noc.topology import paper_hot_links
from repro.stats.summary import scenario_metrics

pytestmark = pytest.mark.perf

FIGURE = "fig_latency_vs_burst"


def packets_per_burst(spec) -> int:
    return dict(spec.traffic_params)["packets_per_burst"]


def hot_link_load(spec) -> float:
    """Load of the busiest paper hot link over ``spec``'s run."""
    platform = build_platform(spec.to_platform_config())
    EmulationEngine(platform).run()
    loads = platform.network.link_loads()
    return max(loads[pair] for pair in paper_hot_links())


def test_fig_latency_vs_packets_per_burst():
    results = figure_results(FIGURE)
    series = [result.metrics for result in results]
    hot = [hot_link_load(result.spec) for result in results]
    emit(
        FIGURE,
        render_table(
            [
                {
                    "packets/burst": packets_per_burst(result.spec),
                    "mean latency (cycles)": f"{m['mean_latency']:.1f}",
                    "max latency": m["max_latency"],
                    "hot link load": f"{load:.2f}",
                }
                for result, m, load in zip(results, series, hot)
            ]
        ),
    )

    means = [m["mean_latency"] for m in series]
    # Shape 1: latency rises monotonically with burst length.
    assert all(a < b for a, b in zip(means, means[1:]))
    # Shape 1b: ...and saturates at the tail — the last doubling gains
    # far less than the steepest doubling in the middle of the curve.
    gains = [b - a for a, b in zip(means, means[1:])]
    assert gains[-1] < max(gains) * 0.5
    # The *maximum* latency hits its hard ceiling outright.
    maxima = [m["max_latency"] for m in series]
    assert maxima[-1] == maxima[-2]

    # Shape 2: the ceiling appears while the hot links run near the
    # paper's 90% operating point during bursts.
    assert hot[-1] > 0.3

    # Shape 3: the saturated mean stays bounded by the structural
    # maximum (source queue + worst drain), not growing without limit.
    assert means[-1] < means[-2] * 1.5


def test_fig_latency_max_bounded_by_queue_depth():
    """Halving the TG queue lowers the latency ceiling — the
    mechanism behind the paper's saturating maximum."""
    (spec,) = [s for s in figure_specs(FIGURE) if packets_per_burst(s) == 64]

    def at_queue(limit):
        platform = build_platform(spec.to_platform_config())
        for generator in platform.generators:
            generator.queue_limit = limit
        result = EmulationEngine(platform).run()
        return scenario_metrics(platform, result)["mean_latency"]

    assert at_queue(32) < at_queue(128)
