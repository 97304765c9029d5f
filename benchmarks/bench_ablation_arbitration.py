"""Ablation — arbitration policy under the 90%-loaded links.

The platform switch uses round-robin arbitration.  This bench swaps in
fixed-priority and matrix arbitration on the paper's overlap setup and
measures per-flow fairness and latency.  Expected: round-robin and
matrix share the hot links evenly; fixed priority starves the
lower-priority flow, visible as a latency spread between flows.
"""

import pytest

from benchmarks.conftest import emit, format_table
from repro.core.engine import EmulationEngine
from repro.core.platform import build_platform
from repro.experiments.spec import ScenarioSpec
from repro.receptors.tracedriven import TraceDrivenReceptor

pytestmark = pytest.mark.perf

POLICIES = ("round_robin", "fixed_priority", "matrix")
PACKETS = 1500


def run_policy(policy: str):
    # Burst traffic: while two bursts collide on a middle link the
    # offered load doubles the link capacity, which is when the
    # arbitration policy decides who waits.  (At the steady 45%/flow
    # uniform load the link is never oversubscribed and every policy
    # behaves identically.)
    cfg = ScenarioSpec(
        traffic="burst",
        packets=PACKETS,
        seed=2,
        traffic_params={"mean_burst_packets": 16},
        arbitration=policy,
    ).to_platform_config()
    platform = build_platform(cfg)
    EmulationEngine(platform).run()
    per_flow = {
        r.node: r.latency.mean_latency
        for r in platform.receptors
        if isinstance(r, TraceDrivenReceptor)
    }
    latencies = list(per_flow.values())
    return {
        "mean": platform.mean_latency(),
        "spread": max(latencies) - min(latencies),
        "max": platform.max_latency(),
        "congestion": platform.congestion_rate(),
    }


def test_ablation_arbitration(benchmark):
    results = {policy: run_policy(policy) for policy in POLICIES}
    rows = [
        (
            policy,
            f"{r['mean']:.1f}",
            f"{r['spread']:.1f}",
            r["max"],
            f"{r['congestion']:.4f}",
        )
        for policy, r in results.items()
    ]
    emit(
        "ablation_arbitration",
        format_table(
            [
                "policy",
                "mean latency",
                "flow latency spread",
                "max latency",
                "congestion",
            ],
            rows,
        ),
    )

    # Fair arbiters keep the flows close; fixed priority skews them.
    assert (
        results["fixed_priority"]["spread"]
        > results["round_robin"]["spread"]
    )
    assert (
        results["fixed_priority"]["spread"]
        > results["matrix"]["spread"]
    )
    # All policies deliver the same traffic volume (checked by the
    # engine's completed flag inside run_policy).

    benchmark(lambda: run_policy("round_robin"))
