"""The monitor.

Slide 8: "A monitor: Display on the screen of a PC the information
extracted from NoC emulation components."  The monitor renders the
final report of an emulation run — device inventory, per-generator and
per-receptor statistics, link loads, congestion, and the run's
emulated-vs-wall-clock timing — as plain text, which is what the
host-PC display of the real platform shows.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.engine import EngineResult
from repro.core.platform import EmulationPlatform
from repro.receptors.stochastic import StochasticReceptor
from repro.receptors.tracedriven import TraceDrivenReceptor
from repro.stats.runtime import format_duration


class Monitor:
    """Host-side rendering of platform state and run results."""

    def __init__(self, platform: EmulationPlatform) -> None:
        self.platform = platform

    # ------------------------------------------------------------------
    # Sections
    # ------------------------------------------------------------------
    def device_listing(self) -> str:
        lines = ["devices:"]
        for device in self.platform.fabric.devices():
            base = device.base_address
            lines.append(
                f"  0x{base:06x}  {device.describe()}"
            )
        return "\n".join(lines)

    def generator_section(self) -> str:
        lines = ["traffic generators:"]
        for generator in self.platform.generators:
            model = type(generator.model).__name__
            lines.append(
                f"  node {generator.node} ({model}):"
                f" sent {generator.packets_sent} packets /"
                f" {generator.flits_sent} flits,"
                f" backpressure {generator.backpressure_cycles} cycles"
            )
        return "\n".join(lines)

    def receptor_section(self) -> str:
        lines = ["traffic receptors:"]
        for receptor in self.platform.receptors:
            if isinstance(
                receptor, (StochasticReceptor, TraceDrivenReceptor)
            ):
                report = receptor.report()
            else:
                report = repr(receptor)
            lines.extend("  " + line for line in report.splitlines())
        return "\n".join(lines)

    def network_section(self) -> str:
        platform = self.platform
        lines = [
            "network:",
            f"  cycles          : {platform.cycle}",
            f"  congestion rate : {platform.congestion_rate():.4f}",
            "  link loads:",
        ]
        loads = sorted(
            platform.hot_link_loads().items(),
            key=lambda item: item[1],
            reverse=True,
        )
        for name, load in loads:
            lines.append(f"    {name:<8} {load:6.1%}")
        return "\n".join(lines)

    def occupancy_section(self) -> str:
        """Buffer-occupancy report (needs ``sample_buffers=True``)."""
        from repro.stats.occupancy import OccupancyReport

        return OccupancyReport(self.platform.network).render()

    def faults_section(self, result: EngineResult) -> str:
        """Render ``EngineResult.faults`` (degradation record).

        Per applied event: what it dropped, whether routing was
        repaired and how long the fabric took to deliver again; then
        the throughput of the before/during/after windows the events
        cut the run into.
        """
        report = result.faults
        lines = [
            "faults:",
            f"  dropped         : {report.dropped_flits} flits /"
            f" {report.dropped_packets} packets",
        ]
        if report.degraded:
            lines.append(
                f"  DEGRADED        : {report.degraded_reason}"
            )
        for event in report.events:
            recovery = (
                f"recovered after {event.recovery_cycles} cycles"
                if event.recovery_cycles is not None
                else "no delivery after the event"
            )
            lines.append(
                f"  @{event.cycle:<6} {event.kind} {event.detail}:"
                f" dropped {event.dropped_flits} flits"
                f" ({event.dropped_packets} packets),"
                f" {'rerouted, ' if event.repaired else ''}{recovery}"
            )
        for name, drops in sorted(report.per_link_drops.items()):
            lines.append(f"    {name:<24} lost {drops} flits")
        if report.windows:
            lines.append("  throughput windows:")
            for window in report.windows:
                lines.append(
                    f"    {window.label:<24}"
                    f" [{window.start}, {window.end})"
                    f" {window.packets_received} packets"
                    f" ({window.throughput:.4f}/cycle)"
                )
        return "\n".join(lines)

    def windows_section(self, result: EngineResult) -> str:
        """Render the windowed-telemetry series of the run."""
        from repro.telemetry.windows import format_window_table

        table = format_window_table(list(result.windows))
        lines = ["telemetry windows:"]
        lines.extend("  " + line for line in table.splitlines())
        return "\n".join(lines)

    def timing_section(self, result: EngineResult) -> str:
        return "\n".join(
            [
                "timing:",
                f"  emulated cycles : {result.cycles}",
                f"  @ {result.f_clk_hz / 1e6:.0f} MHz platform clock:"
                f" {format_duration(result.emulated_seconds)}",
                f"  engine speed    :"
                f" {result.engine_cycles_per_sec:,.0f} cycles/sec"
                f" (wall {result.wall_seconds:.2f} s)",
                f"  completed       : {result.completed}",
            ]
        )

    # ------------------------------------------------------------------
    # The final report (flow step 6)
    # ------------------------------------------------------------------
    def final_report(self, result: Optional[EngineResult] = None) -> str:
        platform = self.platform
        sections: List[str] = [
            f"=== emulation report: {platform.config.name} ===",
            f"packets sent {platform.packets_sent},"
            f" received {platform.packets_received}",
            self.device_listing(),
            self.generator_section(),
            self.receptor_section(),
            self.network_section(),
        ]
        if platform.network.sample_buffers:
            sections.append(self.occupancy_section())
        if result is not None:
            if result.faults is not None:
                sections.append(self.faults_section(result))
            if getattr(result, "windows", None):
                sections.append(self.windows_section(result))
            sections.append(self.timing_section(result))
        return "\n\n".join(sections)
