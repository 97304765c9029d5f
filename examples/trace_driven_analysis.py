"""Trace-driven emulation: record, save, replay, analyze.

Demonstrates the trace-driven half of the platform (Slides 9 & 11):

1. an MPEG-decoder-like synthetic trace stands in for a "trace
   recorded on a real life application",
2. the trace is saved and re-loaded through the interchange format,
3. trace-driven generators replay it through the platform,
4. the trace-driven receptors' latency analyzer and congestion counter
   are read out through the processor — over the bus, exactly as the
   embedded PowerPC would.

Run:  python examples/trace_driven_analysis.py
"""

import os
import tempfile

from repro import (
    EmulationEngine,
    Processor,
    ScenarioSpec,
    build_platform,
)
from repro.stats.summary import scenario_metrics
from repro.traffic.trace import load_trace, save_trace, synthetic_mpeg_trace


def main() -> None:
    # 1. "Record" an application trace: 48 frames of an MPEG-like
    #    stream toward receptor node 7, plus three more streams.
    traces = {
        src: synthetic_mpeg_trace(
            n_frames=48, dst=dst, flits_per_packet=8, seed=10 + src
        )
        for src, dst in ((0, 7), (1, 6), (2, 5), (3, 4))
    }
    for src, trace in traces.items():
        print(
            f"trace for TG{src}: {len(trace)} packets,"
            f" {trace.total_flits} flits,"
            f" offered load {trace.offered_load:.2f} flits/cycle"
        )

    # 2. Round-trip one trace through the on-disk format.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mpeg.trace")
        save_trace(traces[0], path)
        restored = load_trace(path)
        print(
            f"round-trip through {os.path.basename(path)}:"
            f" {len(restored)} records intact"
        )

    # 3. Replay all four traces through the paper platform.
    config = ScenarioSpec(
        traffic="trace", packets=None, routing="overlap"
    ).to_platform_config()
    for spec in config.tgs:
        spec.params = {"trace": traces[spec.node], "dst": None}
        spec.params.pop("dst")
    platform = build_platform(config)
    result = EmulationEngine(platform).run()
    print(
        f"\nreplayed {result.packets_received} packets in"
        f" {result.cycles} cycles"
        f" ({result.emulated_seconds * 1e3:.2f} ms at 50 MHz)"
    )

    # 4. Drain the statistics over the bus, like the real firmware.
    processor = Processor(platform)
    print("\nper-receptor trace-driven analysis (read over the bus):")
    for node in (4, 5, 6, 7):
        latency = processor.read_latency_summary(node)
        congestion = processor.read_congestion_summary(node)
        print(
            f"  node {node}: {latency['count']:5d} packets,"
            f" latency min/avg/max ="
            f" {latency['min']}/{latency['mean']:.1f}/{latency['max']},"
            f" stalls = {congestion['stall_cycles']}"
        )

    congestion = scenario_metrics(platform, result)["congestion_rate"]
    print(f"\nnetwork congestion rate: {congestion:.4f}")


if __name__ == "__main__":
    main()
