"""Statistics reports and analysis (Slide 11).

Analyzer objects accumulate per-packet measurements; the monitor and
the benchmark harnesses read them out.  ``latency`` and ``congestion``
implement the two trace-driven analyses of the paper; ``runtime``
supports the stochastic run-time figure (Slide 20) and the speed
comparison (Slide 18).
"""

from repro.stats.congestion import (
    CongestionCounter,
    network_congestion_rate,
)
from repro.stats.latency import LatencyAnalyzer
from repro.stats.occupancy import BufferStat, OccupancyReport
from repro.stats.runtime import RunTimeModel, SpeedReport
from repro.stats.summary import (
    merged_latency_histogram,
    scenario_metrics,
)

__all__ = [
    "BufferStat",
    "CongestionCounter",
    "LatencyAnalyzer",
    "OccupancyReport",
    "RunTimeModel",
    "SpeedReport",
    "merged_latency_histogram",
    "network_congestion_rate",
    "scenario_metrics",
]
