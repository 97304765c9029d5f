"""Ablation — switching mode: wormhole vs store-and-forward.

The platform emulates "any NoC packet-switching intercommunication
scheme" (Slide 13); this bench compares the two classical disciplines
on the paper workload.  Store-and-forward needs buffers at least one
packet deep and pays a full serialisation delay per hop, so wormhole
must win on latency at equal (sufficient) buffering.
"""

import pytest

from benchmarks.conftest import emit
from repro.experiments import ScenarioSpec, Sweep, SweepRunner, render_table

pytestmark = pytest.mark.perf

PACKETS = 800
LENGTH = 6
DEPTH = 8  # >= packet length, as store-and-forward requires

MODES = ("wormhole", "store_and_forward")

BASE = ScenarioSpec(packets=PACKETS, length=LENGTH, buffer_depth=DEPTH, seed=8)


def test_ablation_switching_mode():
    report = SweepRunner().run(Sweep.grid(BASE, switching=MODES))
    results = {result.spec.switching: result.metrics for result in report}
    assert all(results[mode]["completed"] for mode in MODES)
    emit(
        "ablation_switching",
        render_table(
            [
                {
                    "switching": mode,
                    "mean latency": f"{m['mean_latency']:.1f}",
                    "max latency": m["max_latency"],
                    "cycles": m["cycles"],
                    "congestion": f"{m['congestion_rate']:.4f}",
                }
                for mode, m in results.items()
            ]
        ),
    )

    # Wormhole pipelines flits across hops: strictly lower latency.
    assert (
        results["wormhole"]["mean_latency"]
        < results["store_and_forward"]["mean_latency"]
    )
    # Both deliver the full budget (asserted above).
