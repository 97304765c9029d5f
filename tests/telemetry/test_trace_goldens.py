"""Byte goldens of the two trace artefacts: the JSONL stream and the
Perfetto file of a healthy and of a faulted traced run.

The digests were recorded before the Perfetto export and the JSONL
flush were rewritten as per-record templates, so any byte a template
changes fails here.  A new golden needs a reason of its own (a schema
change), never a formatter change.
"""

import hashlib
import io

import pytest

from repro.core.engine import EmulationEngine
from repro.core.platform import build_platform
from repro.experiments.spec import ScenarioSpec
from repro.faults import FaultSchedule, flaky, link_down, link_up
from repro.telemetry import FlitTracer

#: A mesh link cut and healed both ways while another link drops
#: flits: fault instants, aborted packets and rerouted hops.
MESH_FAULTS = FaultSchedule.of(
    link_down(200, 5, 6), link_down(200, 6, 5),
    link_up(600, 5, 6), link_up(600, 6, 5),
    flaky(100, 9, 10, 500, 0.2),
)

RUNS = {
    "paper-healthy": (
        ScenarioSpec(topology="paper", load=0.45, packets=20), None
    ),
    "mesh-faulted": (
        ScenarioSpec(topology="mesh:4:4", load=0.4, packets=20),
        MESH_FAULTS,
    ),
}

#: run -> (events, JSONL sha256, Perfetto sha256).
GOLDEN = {
    "paper-healthy": (
        3920,
        "adb3f1d916674d70598ad956c91fe5917e3b2267205a27f5a361d9657441db37",
        "e977828c2620b306ad677a15f627b37f229fb7aabf14db27fc2dea849605c5fc",
    ),
    "mesh-faulted": (
        14781,
        "779321411c05d6f1d2657ff431648a34abf42f45ddbd18f1c57695bb37417084",
        "765466924cfb21f384ce5f0f9bfc63db9e9d347310b8d79a5b031a86daab61d5",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_trace_bytes_match_golden(name, tmp_path):
    spec, faults = RUNS[name]
    platform = build_platform(spec.to_platform_config())
    stream = io.StringIO()
    tracer = FlitTracer(stream=stream)
    platform.network.attach_tracer(tracer)
    EmulationEngine(platform, faults=faults).run()
    platform.network.detach_tracer()
    tracer.close()
    path = tmp_path / "trace.json"
    tracer.write_perfetto(str(path))
    kinds = {event["kind"] for event in tracer.events}
    if faults is not None:
        assert {"fault", "abort"} <= kinds
    assert (
        len(tracer.events),
        sha256(stream.getvalue().encode("ascii")),
        sha256(path.read_bytes()),
    ) == GOLDEN[name]
