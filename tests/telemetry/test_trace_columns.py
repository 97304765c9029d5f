"""Flit-trace retention: compact columns, derived views, same bytes.

The tracer keeps its events as columns, not one dict per event.  These
tests pin what that buys (bytes per retained event, the export's own
peak) and what it must not change: ``keep`` decides only retention,
never the JSONL stream, and the ``events`` view is a copy that cannot
reach back into the tracer.
"""

import gc
import hashlib
import io
import json
import tracemalloc

import pytest

from repro.core.engine import EmulationEngine
from repro.core.platform import build_platform
from repro.experiments.spec import ScenarioSpec
from repro.faults import FaultSchedule, link_down
from repro.telemetry import FlitTracer


def traced(keep=True, faults=None, stream=None, **kwargs):
    spec = ScenarioSpec(topology="paper", **kwargs)
    platform = build_platform(spec.to_platform_config())
    tracer = FlitTracer(stream=stream, keep=keep)
    platform.network.attach_tracer(tracer)
    EmulationEngine(platform, faults=faults).run()
    platform.network.detach_tracer()
    tracer.close()
    return tracer


def test_retained_trace_and_export_memory(tmp_path):
    """~39 B per retained event (a dict per event took ~255 B), and the
    streamed Perfetto export adds ~0.6 MiB on top."""
    tracemalloc.start()
    try:
        tracer = traced(load=0.45, packets=200)
        gc.collect()
        with_trace = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tracer.write_perfetto(str(tmp_path / "trace.json"))
        export = tracemalloc.get_traced_memory()[1] - with_trace
        events = len(tracer.events)
        del tracer
        gc.collect()
        retained = with_trace - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert events > 30000
    assert retained <= 48 * events, f"{retained / events:.1f} B/event"
    assert export <= 2**20, f"export peak {export / 2**20:.2f} MiB"


FAULTS = FaultSchedule.of(link_down(300, 1, 4), link_down(300, 4, 1))


def test_keep_changes_only_retention():
    streams = {}
    for keep in (True, False):
        stream = io.StringIO()
        tracer = traced(keep=keep, faults=FAULTS, stream=stream,
                        load=0.9, packets=200)
        streams[keep] = stream.getvalue()
    assert streams[True] == streams[False]
    assert '"kind":"fault"' in streams[True]
    assert '"kind":"abort"' in streams[True]
    assert tracer.events == []


def perfetto_digest(tracer):
    text = json.dumps(tracer.to_perfetto())
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def test_events_view_is_a_copy():
    tracer = traced(faults=FAULTS, load=0.9, packets=200)
    before = perfetto_digest(tracer)
    events = tracer.events
    assert events == tracer.events
    events[0]["where"] = "elsewhere"
    events[-1]["cycle"] = -1
    del events[1:10]
    events.append({"cycle": 0, "kind": "abort", "where": "", "pid": 0,
                   "seq": 0})
    assert perfetto_digest(tracer) == before
    assert len(tracer.events) != len(events)
    with pytest.raises(AttributeError):
        tracer.events = []
