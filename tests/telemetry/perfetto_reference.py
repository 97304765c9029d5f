"""The Perfetto export built the slow, obvious way: one dict per record
from the tracer's public events, encoded by ``json.dumps``.

The test oracle of :meth:`repro.telemetry.FlitTracer.write_perfetto`,
which formats the same records from templates: its bytes must equal
``json.dumps(reference(tracer))``.
"""

from typing import Any, Dict, Iterator


def reference(tracer) -> Dict[str, Any]:
    """The Chrome ``trace_event`` document of ``tracer``'s events."""
    return {
        "traceEvents": list(_records(tracer.events)),
        "displayTimeUnit": "ms",
    }


def _records(events) -> Iterator[Dict[str, Any]]:
    tracks = sorted({e["where"] for e in events} - {""})
    tids = {name: tid for tid, name in enumerate(tracks, 1)}
    yield {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
           "args": {"name": "noc-emulation"}}
    for name, tid in tids.items():
        yield {"name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
               "args": {"name": name}}
    span_open = set()
    for e in events:
        kind, pid, cycle = e["kind"], e["pid"], e["cycle"]
        tid = tids.get(e["where"], 0)
        if kind == "inject":
            if pid not in span_open:
                span_open.add(pid)
                yield {"name": f"packet {pid}", "cat": "packet",
                       "ph": "b", "id": pid, "ts": cycle, "pid": 0,
                       "tid": 0}
            yield {"name": f"p{pid}.f{e['seq']}", "cat": "flit",
                   "ph": "i", "s": "t", "ts": cycle, "pid": 0,
                   "tid": tid}
        elif kind in ("hop", "eject"):
            yield {"name": f"p{pid}.f{e['seq']}", "cat": kind,
                   "ph": "X", "ts": cycle - e["dur"], "dur": e["dur"],
                   "pid": 0, "tid": tid,
                   "args": {"pid": pid, "seq": e["seq"]}}
        elif kind in ("packet", "abort") and pid in span_open:
            yield {"name": f"packet {pid}", "cat": "packet", "ph": "e",
                   "id": pid, "ts": cycle, "pid": 0, "tid": 0,
                   "args": {"outcome": kind}}
            span_open.remove(pid)
        elif kind == "fault":
            yield {"name": f"fault {e['fault']} {e['where']}",
                   "cat": "fault", "ph": "i", "s": "g", "ts": cycle,
                   "pid": 0, "tid": 0}
