"""Ablation — switch buffer depth (the Slide 6 "size of buffers").

Sweeps the per-input FIFO depth on the paper's overlap setup, burst
traffic.  Expected: deeper buffers absorb bursts (lower congestion
rate), with diminishing returns once the buffer covers a whole burst —
and each extra flit of depth costs slices in the FPGA, so the bench
also prices every point via the synthesis model (the trade-off the
platform exists to explore without re-synthesis... of the *real*
hardware; the model here re-prices instantly).

The depth axis is a one-line :func:`Sweep.grid` through the
experiment runner; congestion/latency come from the shared
``ScenarioResult`` record and the FPGA price from synthesising each
spec's elaborated config (one synthesis per depth — depth is a
hardware parameter).
"""

import pytest

from benchmarks.conftest import emit
from repro.experiments import ScenarioSpec, Sweep, SweepRunner, render_table
from repro.fpga.synthesis import synthesize

pytestmark = pytest.mark.perf

DEPTHS = (1, 2, 4, 8, 16)
PACKETS = 1000

BASE = ScenarioSpec(traffic="burst", packets=PACKETS, seed=4)


def run_depths(depths):
    results = SweepRunner().run(Sweep.grid(BASE, buffer_depth=depths))
    out = {}
    for depth, result in zip(depths, results):
        metrics = result.metrics
        assert metrics["completed"]
        synth = synthesize(result.spec.to_platform_config())
        out[depth] = {
            "congestion": metrics["congestion_rate"],
            "latency": metrics["mean_latency"],
            "cycles": metrics["cycles"],
            "slices": synth.total_slices,
        }
    return out


def test_ablation_buffer_depth():
    results = run_depths(DEPTHS)
    emit(
        "ablation_buffers",
        render_table(
            [
                {
                    "buffer depth": depth,
                    "congestion": f"{r['congestion']:.4f}",
                    "mean latency": f"{r['latency']:.1f}",
                    "cycles": r["cycles"],
                    "platform slices": r["slices"],
                }
                for depth, r in results.items()
            ]
        ),
    )

    # Deeper buffers strictly cost more FPGA area...
    slices = [results[d]["slices"] for d in DEPTHS]
    assert slices == sorted(slices)
    assert slices[0] < slices[-1]
    # ...and reduce blocking under burst traffic.
    assert (
        results[DEPTHS[-1]]["congestion"]
        < results[DEPTHS[0]]["congestion"]
    )
    # Diminishing returns: the last doubling buys less congestion
    # relief than the first.
    first_relief = (
        results[DEPTHS[0]]["congestion"]
        - results[DEPTHS[1]]["congestion"]
    )
    last_relief = (
        results[DEPTHS[-2]]["congestion"]
        - results[DEPTHS[-1]]["congestion"]
    )
    assert last_relief < first_relief
