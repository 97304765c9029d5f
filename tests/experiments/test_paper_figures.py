"""The paper's figure documents, run at a reduced budget.

Each trace-driven figure is a sweep document under
``benchmarks/sweeps/``, which the perf benches run at full budget and
``repro batch`` runs unedited.  Here each document runs with its budget
axis divided down (the specs come from the document itself), every
shape claim of its bench that holds at that budget is asserted, and a
digest pins each series.  The burst series of ``fig_runtime_vs_packets``
is not linear at half budget (125 -> 250 packets grows 1.48x), so that
one claim stays with the full-budget bench.
"""

import hashlib
import json
import os

import pytest

from repro.core.engine import EmulationEngine
from repro.core.platform import build_platform
from repro.experiments import ScenarioSpec, Sweep, SweepRunner
from repro.noc.topology import paper_hot_links
from repro.stats.summary import scenario_metrics
from repro.util import canonical_json_bytes

SWEEPS = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "benchmarks", "sweeps"
)

#: Each document's budget axis and the divisor applied to it.
BUDGETS = {
    "fig_latency_vs_burst": ("traffic_params.n_bursts", 8),
    "fig_congestion_vs_burst": ("traffic_params.n_bursts", 8),
    "fig_runtime_vs_packets": ("packets", 2),
}


def reduced_specs(name):
    """The document's scenarios with the budget axis divided down."""
    path = os.path.join(SWEEPS, f"{name}.json")
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    axis, divisor = BUDGETS[name]
    values = payload["zip"][axis]
    payload["zip"][axis] = [max(1, value // divisor) for value in values]
    return Sweep.from_dict(payload)


def run(specs):
    report = SweepRunner().run(specs)
    assert report.ok
    assert all(result.metrics["completed"] for result in report)
    return report


def digest(results):
    """Content hash of a series' metric records."""
    blob = canonical_json_bytes([result.record() for result in results])
    return hashlib.sha256(blob).hexdigest()[:16]


def param(spec, name):
    return dict(spec.traffic_params)[name]


@pytest.fixture(scope="module")
def figure():
    """Each document's results at its reduced budget."""
    return {name: run(reduced_specs(name)) for name in BUDGETS}


def test_every_document_loads_as_batch_reads_it():
    for name in BUDGETS:
        specs = Sweep.from_file(os.path.join(SWEEPS, f"{name}.json"))
        assert len({spec.key for spec in specs}) == len(specs)


def test_latency_rises_then_saturates(figure):
    results = figure["fig_latency_vs_burst"]
    assert digest(results) == "a300985823b65474"
    means = [r.metrics["mean_latency"] for r in results]
    assert all(a < b for a, b in zip(means, means[1:]))
    gains = [b - a for a, b in zip(means, means[1:])]
    assert gains[-1] < max(gains) * 0.5
    maxima = [r.metrics["max_latency"] for r in results]
    assert maxima[-1] == maxima[-2]
    assert means[-1] < means[-2] * 1.5

    # The ceiling appears while the hot links run near 90% load; the
    # record holds no link loads, so the last point runs on a platform.
    platform = build_platform(results[-1].spec.to_platform_config())
    EmulationEngine(platform).run()
    loads = platform.network.link_loads()
    assert max(loads[pair] for pair in paper_hot_links()) > 0.3


def test_latency_ceiling_follows_queue_depth():
    (spec,) = [
        s
        for s in reduced_specs("fig_latency_vs_burst")
        if param(s, "packets_per_burst") == 64
    ]

    def at_queue(limit):
        platform = build_platform(spec.to_platform_config())
        for generator in platform.generators:
            generator.queue_limit = limit
        result = EmulationEngine(platform).run()
        return scenario_metrics(platform, result)["mean_latency"]

    assert at_queue(32) < at_queue(128)


def test_congestion_grows_with_burst_and_packet_length(figure):
    results = figure["fig_congestion_vs_burst"]
    assert digest(results) == "14a4a618b8313ba7"
    rate = {
        (
            param(r.spec, "packets_per_burst"),
            param(r.spec, "flits_per_packet"),
        ): r.metrics["congestion_rate"]
        for r in results
    }
    ppbs = (1, 2, 4, 8, 16, 32)
    fpps = (2, 4, 8, 16)
    for fpp in fpps:
        series = [rate[ppb, fpp] for ppb in ppbs]
        assert series[0] < series[2] < series[-1] + 1e-9
        assert series[-1] >= series[0]
    for ppb in ppbs:
        column = [rate[ppb, fpp] for fpp in fpps]
        assert column == sorted(column)
    assert all(0.0 <= v < 1.0 for v in rate.values())
    # Saturation: the marginal gain shrinks for longer bursts.
    a, b, c = (rate[ppb, 8] for ppb in (1, 8, 64))
    assert b - a > 0
    assert c - b < b - a


def test_runtime_linear_and_burst_congests_more(figure):
    results = figure["fig_runtime_vs_packets"]
    assert digest(results) == "8b396208739dd9f7"
    series = {}
    for result in results:
        series.setdefault(result.spec.traffic, []).append(result.metrics)
    uniform, burst = series["uniform"], series["burst"]
    cycles = [m["cycles"] for m in uniform]
    for a, b in zip(cycles, cycles[1:]):
        assert b / a == pytest.approx(2.0, rel=0.25)
    for u, b in zip(uniform, burst):
        assert b["congestion_rate"] > u["congestion_rate"]
    # Bursts stretch the drain tail at the second budget point.
    assert burst[1]["cycles"] > uniform[1]["cycles"] * 0.95


def paper_series(routing, seed, budget):
    """The packets-per-burst series ``repro sweep`` printed: budget
    ``budget`` packets per TG, at least two bursts, default gap."""
    ppbs = (1, 2, 4, 8, 16, 32, 64)
    return Sweep.zip(
        ScenarioSpec(
            routing=routing, traffic="trace", packets=None, seed=seed
        ),
        **{
            "traffic_params.packets_per_burst": ppbs,
            "traffic_params.n_bursts": [
                max(2, budget // ppb) for ppb in ppbs
            ],
        },
    )


def test_paper_series_numbers():
    """The series recorded from the paper-config builder that ran each
    point before sweeps went through the spec."""
    congestion = run(paper_series("overlap", seed=1, budget=64))
    assert [
        f"{r.metrics['congestion_rate']:.4f}" for r in congestion
    ] == ["0.1899", "0.2644", "0.3005", "0.3173", "0.3314", "0.3314",
          "0.3324"]
    latency = run(paper_series("disjoint", seed=5, budget=64))
    assert [f"{r.metrics['mean_latency']:.1f}" for r in latency] == [
        "16.0"
    ] * 7


def test_repeated_split_sweep_gives_identical_records():
    """Each sweep point starts from pid 0, so neither the points
    before it nor an earlier sweep in the process shift its figure."""
    specs = paper_series("split", seed=1, budget=128)
    first = [r.record() for r in run(specs)]
    assert first == [r.record() for r in run(specs)]
