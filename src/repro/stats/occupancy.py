"""Buffer-occupancy reporting.

The switch parameter the paper highlights most is the buffer size
(Slide 6); this module turns the per-buffer occupancy sampling of the
network (``sample_buffers=True``) into the report a designer sizes
buffers from: mean/peak occupancy and full-time fraction per switch
input, the platform-wide hottest buffers, and a suggested depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.noc.network import Network


@dataclass
class BufferStat:
    """Occupancy summary of one switch input buffer."""

    switch: int
    port: int
    capacity: int
    mean: float
    peak: int
    full_fraction: float

    @property
    def name(self) -> str:
        return f"sw{self.switch}.in{self.port}"

    @property
    def pressure(self) -> float:
        """Mean occupancy as a fraction of capacity (sizing signal)."""
        return self.mean / self.capacity if self.capacity else 0.0


class OccupancyReport:
    """Occupancy of every input buffer in a sampled network."""

    def __init__(self, network: "Network") -> None:
        if not network.sample_buffers:
            raise ValueError(
                "occupancy reporting needs a network built with"
                " sample_buffers=True (note: per-cycle sampling"
                " disables idle fast-forward; for mid-run occupancy"
                " at full speed use the windowed telemetry series"
                " instead — repro.telemetry.WindowedMetrics reports"
                " per-switch buffered flits at every window boundary"
                " with fast-forward and parking fully engaged)"
            )
        self.stats: List[BufferStat] = []
        for switch in network.switches:
            for port, buf in enumerate(switch.inputs):
                self.stats.append(
                    BufferStat(
                        switch=switch.switch_id,
                        port=port,
                        capacity=buf.capacity,
                        mean=buf.mean_occupancy,
                        peak=buf.peak_occupancy,
                        full_fraction=buf.full_fraction,
                    )
                )

    def hottest(self, n: int = 5) -> List[BufferStat]:
        """The ``n`` buffers with the highest mean occupancy."""
        return sorted(self.stats, key=lambda s: -s.mean)[:n]

    def peak_depth_used(self) -> int:
        """Deepest occupancy any buffer reached (lower bound on the
        depth that would have sufficed for this run)."""
        return max((s.peak for s in self.stats), default=0)

    def suggested_depth(self) -> int:
        """Peak depth used plus one flit of slack — a sizing suggestion
        for the next platform compilation."""
        return self.peak_depth_used() + 1

    def mean_pressure(self) -> float:
        """Average occupancy fraction across all buffers."""
        if not self.stats:
            return 0.0
        return sum(s.pressure for s in self.stats) / len(self.stats)

    def render(self, top: int = 8) -> str:
        lines = [
            "buffer occupancy:",
            f"  peak depth used   : {self.peak_depth_used()}",
            f"  suggested depth   : {self.suggested_depth()}",
            f"  mean pressure     : {self.mean_pressure():.1%}",
            f"  hottest buffers (top {top}):",
        ]
        for stat in self.hottest(top):
            lines.append(
                f"    {stat.name:<10} mean {stat.mean:5.2f}/"
                f"{stat.capacity}  peak {stat.peak}"
                f"  full {stat.full_fraction:6.1%}"
            )
        return "\n".join(lines)
