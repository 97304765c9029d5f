"""Compare the stochastic traffic models at an equal offered load.

Runs the paper platform under every stochastic model the TG register
bench supports — uniform, burst (2-state Markov), Poisson and
deterministic on/off — with the offered load pinned at the paper's 45%
per generator, and contrasts the resulting congestion and latency.
Also renders a stochastic receptor's histograms ("an image of the
received traffic", Slide 11) for the two extremes.

Run:  python examples/compare_traffic_models.py
"""

from repro import EmulationEngine, ScenarioSpec, build_platform
from repro.stats.summary import scenario_metrics

MODELS = ("uniform", "poisson", "onoff", "burst")
PACKETS = 2000


def run_model(model: str, receptor_kind: str = "tracedriven"):
    platform = build_platform(
        ScenarioSpec(
            traffic=model,
            load=0.45,
            packets=PACKETS,
            receptors=receptor_kind,
            seed=21,
        ).to_platform_config()
    )
    result = EmulationEngine(platform).run()
    return platform, result


def main() -> None:
    print(
        f"{'model':<10}{'cycles':>10}{'congestion':>12}"
        f"{'mean lat':>10}{'max lat':>9}"
    )
    print("-" * 51)
    for model in MODELS:
        metrics = scenario_metrics(*run_model(model))
        print(
            f"{model:<10}{metrics['cycles']:>10}"
            f"{metrics['congestion_rate']:>12.4f}"
            f"{metrics['mean_latency']:>10.1f}"
            f"{metrics['max_latency']:>9}"
        )

    print()
    print(
        "burstier processes congest more at the same offered load —"
        " the Slide 20 observation."
    )

    # Histograms from a stochastic receptor: smooth vs bursty arrivals.
    print("\ninter-arrival gap at receptor node 7, uniform traffic:")
    platform, _ = run_model("uniform", receptor_kind="stochastic")
    receptor = next(r for r in platform.receptors if r.node == 7)
    print(receptor.gap_histogram.render(width=30))

    print("\ninter-arrival gap at receptor node 7, burst traffic:")
    platform, _ = run_model("burst", receptor_kind="stochastic")
    receptor = next(r for r in platform.receptors if r.node == 7)
    print(receptor.gap_histogram.render(width=30))


if __name__ == "__main__":
    main()
