"""Buffer sizing with the occupancy and power reports.

The "size of buffers" switch parameter (Slide 6) trades FPGA area and
power against congestion.  This study runs burst traffic over a range
of buffer depths and, for each depth, combines:

* the occupancy report (what depth the traffic actually used),
* the synthesis model (slices), and
* the activity-based power model (mW),

then prints the sizing suggestion the occupancy data implies.

Run:  python examples/buffer_sizing_study.py
"""

from repro import EmulationEngine, ScenarioSpec, build_platform
from repro.fpga.power import estimate_power
from repro.fpga.synthesis import synthesize
from repro.stats.occupancy import OccupancyReport
from repro.stats.summary import scenario_metrics


def run_depth(depth: int):
    config = ScenarioSpec(
        traffic="burst",
        packets=1200,
        buffer_depth=depth,
        seed=12,
    ).to_platform_config()
    config.sample_buffers = True
    platform = build_platform(config)
    result = EmulationEngine(platform).run()
    metrics = scenario_metrics(platform, result)
    occupancy = OccupancyReport(platform.network)
    power = estimate_power(platform)
    synth = synthesize(config)
    return {
        "congestion": metrics["congestion_rate"],
        "latency": metrics["mean_latency"],
        "peak_used": occupancy.peak_depth_used(),
        "pressure": occupancy.mean_pressure(),
        "slices": synth.total_slices,
        "power_mw": power.total_mw,
    }


def main() -> None:
    print(
        f"{'depth':>5}{'congestion':>12}{'latency':>9}"
        f"{'peak used':>11}{'pressure':>10}{'slices':>8}{'mW':>9}"
    )
    print("-" * 64)
    results = {}
    for depth in (1, 2, 4, 8, 16):
        r = run_depth(depth)
        results[depth] = r
        print(
            f"{depth:>5}{r['congestion']:>12.4f}{r['latency']:>9.1f}"
            f"{r['peak_used']:>11}{r['pressure']:>10.1%}"
            f"{r['slices']:>8}{r['power_mw']:>9.1f}"
        )

    # The sizing logic a designer would apply: the smallest depth
    # whose congestion is within 10% of the deepest configuration.
    deepest = results[16]["congestion"]
    for depth in (1, 2, 4, 8, 16):
        if results[depth]["congestion"] <= deepest * 1.1 + 1e-9:
            print(
                f"\nsuggested depth: {depth} — congestion within 10%"
                f" of depth-16 at"
                f" {results[16]['slices'] - results[depth]['slices']}"
                f" fewer slices"
            )
            break

    # Show the full occupancy report for the chosen depth.
    config = ScenarioSpec(
        traffic="burst", packets=1200, buffer_depth=depth, seed=12
    ).to_platform_config()
    config.sample_buffers = True
    platform = build_platform(config)
    EmulationEngine(platform).run()
    print()
    print(OccupancyReport(platform.network).render())


if __name__ == "__main__":
    main()
