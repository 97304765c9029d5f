"""``repro run`` has one execution path, so observing never changes it.

Every run goes flags -> ScenarioSpec -> build_engine -> drive ->
Monitor report, on the paper platform as on any other fabric.  The
observer flags (windows, progress, trace, checkpoint) attach to that
path; none of them may move an emulated number.  The six-step
``EmulationFlow`` writes only values its platform already holds, so it
computes what the bare engine computes.
"""

import pytest

from repro.cli import main
from repro.core.engine import EmulationEngine
from repro.core.flow import EmulationFlow
from repro.core.monitor import Monitor
from repro.core.platform import build_platform
from repro.experiments.spec import ScenarioSpec

TRAFFIC = ("uniform", "burst", "poisson", "onoff", "trace")

#: Observer flag sets; ``{tmp}`` is the test's scratch directory.
OBSERVERS = {
    "none": [],
    "windows": ["--windows", "150"],
    "progress": ["--progress"],
    "trace": ["--trace", "{tmp}/flits.jsonl"],
    "checkpoint": ["--checkpoint-out", "{tmp}/cp.json"],
    "windows+trace": [
        "--windows", "150", "--trace", "{tmp}/flits.jsonl",
    ],
    "all-but-trace": [
        "--windows", "150", "--progress",
        "--checkpoint-out", "{tmp}/cp.json", "--checkpoint-every", "97",
    ],
}


def emulated(report: str) -> str:
    """The report without its wall-clock line and window section."""
    sections = [
        s for s in report.split("\n\n")
        if not s.startswith("telemetry windows:")
    ]
    return "\n".join(
        line for line in "\n\n".join(sections).splitlines()
        if "engine speed" not in line
    )


@pytest.mark.parametrize("traffic", TRAFFIC)
@pytest.mark.parametrize("topology", ["paper", "mesh:4:4"])
def test_observer_flags_never_change_the_run(
    topology, traffic, tmp_path, capsys
):
    reports, series = {}, {}
    for name, flags in OBSERVERS.items():
        argv = [
            "run", "--topology", topology, "--traffic", traffic,
            "--packets", "30",
        ] + [flag.format(tmp=tmp_path) for flag in flags]
        windows_out = tmp_path / f"{name}.json"
        if "--windows" in flags:
            argv += ["--windows-out", str(windows_out)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0, captured.err
        reports[name] = emulated(captured.out)
        if "--windows" in flags:
            assert "telemetry windows:" in captured.out
            series[name] = windows_out.read_text()
    assert "received" in reports["none"]
    assert len(set(reports.values())) == 1, sorted(reports)
    assert len(series) == 3 and len(set(series.values())) == 1


@pytest.mark.parametrize("traffic", TRAFFIC)
def test_flow_computes_what_the_engine_computes(traffic):
    """Step 3's bus writes hold the platform's own values: the flow's
    report equals a bare engine run of the same config."""
    config = ScenarioSpec(
        traffic=traffic,
        packets=None if traffic == "trace" else 200,
        traffic_params=(
            {"n_bursts": 8, "packets_per_burst": 4}
            if traffic == "trace" else {}
        ),
    ).to_platform_config()
    flow = EmulationFlow().run(config)
    platform = build_platform(config)
    result = EmulationEngine(platform).run()
    assert flow.result.cycles == result.cycles
    assert emulated(flow.report_text) == emulated(
        Monitor(platform).final_report(result)
    )
