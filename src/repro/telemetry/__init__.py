"""Parking-aware telemetry: windowed metrics, flit traces, progress.

The observability layer of the reproduction (the software face of the
paper's hardware monitor): :class:`WindowedMetrics` differencing the
settle-on-read counters at window boundaries, :class:`FlitTracer`
streaming flit-level events to JSONL/Perfetto, :class:`ProgressMeter`
firing live run-progress callbacks — all designed so input parking and
idle fast-forward stay fully engaged while telemetry is on.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "ProgressMeter": ".progress",
    "ProgressSample": ".progress",
    "format_progress": ".progress",
    "FlitTracer": ".trace",
    "WindowRecord": ".windows",
    "WindowedMetrics": ".windows",
    "format_window_table": ".windows",
})
