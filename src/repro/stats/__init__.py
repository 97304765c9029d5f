"""Statistics reports and analysis (Slide 11).

Analyzer objects accumulate per-packet measurements; the monitor and
the benchmark harnesses read them out.  ``latency`` and ``congestion``
implement the two trace-driven analyses of the paper; ``runtime``
supports the stochastic run-time figure (Slide 20) and the speed
comparison (Slide 18).
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "CongestionCounter": ".congestion",
    "network_congestion_rate": ".congestion",
    "LatencyAnalyzer": ".latency",
    "BufferStat": ".occupancy",
    "OccupancyReport": ".occupancy",
    "RunTimeModel": ".runtime",
    "SpeedReport": ".runtime",
    "merged_latency_histogram": ".summary",
    "scenario_metrics": ".summary",
})
