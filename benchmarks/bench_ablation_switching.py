"""Ablation — switching mode: wormhole vs store-and-forward.

The platform emulates "any NoC packet-switching intercommunication
scheme" (Slide 13); this bench compares the two classical disciplines
on the paper workload.  Store-and-forward needs buffers at least one
packet deep and pays a full serialisation delay per hop, so wormhole
must win on latency at equal (sufficient) buffering.
"""

import pytest

from benchmarks.conftest import emit, format_table
from repro.core.engine import EmulationEngine
from repro.core.platform import build_platform
from repro.experiments.spec import ScenarioSpec

pytestmark = pytest.mark.perf

PACKETS = 800
LENGTH = 6
DEPTH = 8  # >= packet length, as store-and-forward requires

MODES = ("wormhole", "store_and_forward")


def run_mode(mode: str):
    cfg = ScenarioSpec(
        packets=PACKETS,
        length=LENGTH,
        buffer_depth=DEPTH,
        seed=8,
        switching=mode,
    ).to_platform_config()
    platform = build_platform(cfg)
    result = EmulationEngine(platform).run()
    assert result.completed
    return {
        "latency": platform.mean_latency(),
        "max": platform.max_latency(),
        "cycles": result.cycles,
        "congestion": platform.congestion_rate(),
    }


def test_ablation_switching_mode(benchmark):
    results = {mode: run_mode(mode) for mode in MODES}
    rows = [
        (
            mode,
            f"{r['latency']:.1f}",
            r["max"],
            r["cycles"],
            f"{r['congestion']:.4f}",
        )
        for mode, r in results.items()
    ]
    emit(
        "ablation_switching",
        format_table(
            [
                "switching",
                "mean latency",
                "max latency",
                "cycles",
                "congestion",
            ],
            rows,
        ),
    )

    # Wormhole pipelines flits across hops: strictly lower latency.
    assert (
        results["wormhole"]["latency"]
        < results["store_and_forward"]["latency"]
    )
    # Both deliver the full budget (asserted inside run_mode).

    benchmark(lambda: run_mode("wormhole"))
