"""Packet ids belong to the platform that emits them.

Pids feed the multipath routing hash (``split``, ``multipath:k``) and
the flaky-drop RNG, so a platform whose pids came from a process-wide
counter would compute results that depend on every platform built
before it.  Each platform numbers its own packets from 0: a run is a
function of the platform's registers alone, whatever else the process
built, ran or interleaved with it.
"""

from repro.core.engine import EmulationEngine
from repro.core.platform import build_platform
from repro.experiments.spec import ScenarioSpec
from repro.stats.summary import scenario_metrics
from test_kernel_parity import snapshot


def test_rebuilt_split_trace_platform_repeats_its_statistics():
    def run():
        platform = build_platform(ScenarioSpec(
            traffic="trace",
            routing="split",
            traffic_params={"n_bursts": 128, "packets_per_burst": 4},
            packets=None,
            seed=1,
        ).to_platform_config())
        return scenario_metrics(platform, EmulationEngine(platform).run())

    assert run() == run()


def test_interleaved_event_and_reference_platforms_match():
    """Two platforms stepped alternately in one process draw pids from
    their own allocators, so the event kernel matches the reference
    kernel without any pid bookkeeping by the caller."""
    spec = ScenarioSpec(
        topology="paper", routing="split", load=0.45, packets=None, seed=3
    )
    event = build_platform(spec.to_platform_config())
    reference = build_platform(spec.to_platform_config())
    for _ in range(1500):
        event.step()
        reference.step_reference()
    assert event.packets_received > 0
    assert snapshot(event) == snapshot(reference)
