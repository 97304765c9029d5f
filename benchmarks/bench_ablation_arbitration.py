"""Ablation — arbitration policy under the 90%-loaded links.

The platform switch uses round-robin arbitration.  This bench swaps in
fixed-priority and matrix arbitration on the paper's overlap setup and
measures per-flow fairness and latency.  Expected: round-robin and
matrix share the hot links evenly; fixed priority starves the
lower-priority flow, visible as a latency spread between flows.
"""

import pytest

from benchmarks.conftest import emit
from repro.core.engine import EmulationEngine
from repro.core.platform import build_platform
from repro.experiments import render_table
from repro.experiments.spec import ScenarioSpec
from repro.receptors.tracedriven import TraceDrivenReceptor
from repro.stats.summary import scenario_metrics

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
    result = EmulationEngine(platform).run()
    assert result.completed
    # The metric record holds no per-flow latency: the receptors are read.
    per_flow = {
        r.node: r.latency.mean_latency
        for r in platform.receptors
        if isinstance(r, TraceDrivenReceptor)
    }
    latencies = list(per_flow.values())
    metrics = scenario_metrics(platform, result)
    return {
        "mean": metrics["mean_latency"],
        "spread": max(latencies) - min(latencies),
        "max": metrics["max_latency"],
        "congestion": metrics["congestion_rate"],
    }


def test_ablation_arbitration():
    results = {policy: run_policy(policy) for policy in POLICIES}
    emit(
        "ablation_arbitration",
        render_table(
            [
                {
                    "policy": policy,
                    "mean latency": f"{r['mean']:.1f}",
                    "flow latency spread": f"{r['spread']:.1f}",
                    "max latency": r["max"],
                    "congestion": f"{r['congestion']:.4f}",
                }
                for policy, r in results.items()
            ]
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
    # All policies deliver the same traffic volume (the completed
    # flag is checked inside run_policy).
