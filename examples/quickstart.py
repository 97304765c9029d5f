"""Quickstart: run the paper's platform through the full emulation flow.

Builds the 6-switch / 4-TG / 4-TR platform of Genko et al. (DATE 2005),
pushes it through the six-step emulation flow (platform compilation,
physical synthesis, initialisation, software compilation, emulation,
final report) and prints what the monitor would show on the host PC.

Run:  python examples/quickstart.py
"""

from repro import EmulationFlow, ScenarioSpec


def main() -> None:
    # One emulation run: uniform traffic, each generator drives its
    # diagonal receptor at 45% of link bandwidth, 2000 packets each.
    config = ScenarioSpec(
        traffic="uniform",
        load=0.45,
        packets=2000,
        routing="overlap",
    ).to_platform_config()

    flow = EmulationFlow()
    report = flow.run(config)

    print(report.synthesis.render())
    print()
    print(report.report_text)
    print()
    print("flow step timings (wall-clock seconds):")
    for step, seconds in report.step_seconds.items():
        print(f"  {step:<18} {seconds:8.4f}")

    # The headline of the flow: re-running with different *software*
    # settings (seeds, budgets, routing tables) skips re-synthesis.
    second = flow.run(
        config.with_software(name="paper6_rerun"),
    )
    print()
    print(
        f"second run with new software settings: resynthesized ="
        f" {second.resynthesized} (hardware steps cached)"
    )


if __name__ == "__main__":
    main()
