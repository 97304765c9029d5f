"""The paper's experimental setup (Slide 19), measured end to end.

Reproduces the operating point the paper's evaluation figures are
taken at: four diagonal flows at 45% injection each, two routing
possibilities per flow, and — with the overlapping route case — two
inter-switch links at 90% load.  Prints the measured link-load map for
both route cases and the congestion/latency consequences.

Run:  python examples/paper_setup.py
"""

from repro import EmulationEngine, ScenarioSpec, build_platform
from repro.noc.topology import paper_hot_links
from repro.stats.summary import scenario_metrics


def run_case(case: str):
    platform = build_platform(
        ScenarioSpec(
            traffic="uniform",
            load=0.45,
            packets=3000,
            routing=case,
        ).to_platform_config()
    )
    result = EmulationEngine(platform).run()
    return platform, result


def print_case(platform, result) -> float:
    """Print the case's link-load map and metrics; its mean latency."""
    loads = platform.network.link_loads()
    hot = set(paper_hot_links())
    print("  inter-switch link loads:")
    for pair, load in sorted(loads.items(), key=lambda x: -x[1]):
        marker = "  <-- 90% hot link (Slide 19)" if pair in hot else ""
        if load > 0.01:
            print(f"    {pair[0]}->{pair[1]}  {load:6.1%}{marker}")
    metrics = scenario_metrics(platform, result)
    print(f"  congestion rate : {metrics['congestion_rate']:.4f}")
    print(f"  mean latency    : {metrics['mean_latency']:.1f} cycles")
    print(f"  max latency     : {metrics['max_latency']} cycles")
    return metrics["mean_latency"]


def main() -> None:
    print("=" * 64)
    print("Route case 'overlap' — all flows share the middle column")
    print("=" * 64)
    overlap = print_case(*run_case("overlap"))

    print()
    print("=" * 64)
    print("Route case 'disjoint' — dimension-ordered, no shared links")
    print("=" * 64)
    disjoint = print_case(*run_case("disjoint"))

    print()
    ratio = overlap / max(disjoint, 1e-9)
    print(
        f"sharing the two middle links costs {ratio:.2f}x mean latency"
        f" at the same offered load"
    )


if __name__ == "__main__":
    main()
