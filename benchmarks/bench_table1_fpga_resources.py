"""T1 — FPGA resource report (Slide 17).

Regenerates the paper's synthesis table for the 4-TG / 4-TR / 6-switch
platform and checks every row against the published numbers:

    TG stochastic    719 slices   7.8%
    TG trace driven  652 slices   7.0%
    TR stochastic    371 slices   4.0%
    TR trace driven  690 slices   7.4%
    Control module    18 slices   0.2%
    whole platform  7387 slices  80%   (=> XC2VP20, 9280 slices)
"""

import pytest

from benchmarks.conftest import emit
from repro.experiments import render_table
from repro.experiments.spec import ScenarioSpec
from repro.fpga.costs import control_cost, tg_cost, tr_cost
from repro.fpga.synthesis import synthesize

pytestmark = pytest.mark.perf

#: (device row, paper slices, paper % of the FPGA)
PAPER_TABLE1 = [
    ("TG stochastic", 719, 7.8),
    ("TG trace driven", 652, 7.0),
    ("TR stochastic", 371, 4.0),
    ("TR trace driven", 690, 7.4),
    ("Control module", 18, 0.2),
]

PAPER_PLATFORM_SLICES = 7387
PAPER_UTILISATION = 0.80


def _stochastic_config():
    return ScenarioSpec(
        traffic="uniform", receptors="stochastic"
    ).to_platform_config()


def _trace_config():
    return ScenarioSpec(
        traffic="trace",
        packets=None,
        receptors="tracedriven",
    ).to_platform_config()


def test_table1_per_device_rows():
    """Each device type reproduces its Table 1 slice count exactly."""
    report_stoch = synthesize(_stochastic_config())
    report_trace = synthesize(_trace_config())

    measured = {
        "TG stochastic": tg_cost("uniform").slices,
        "TG trace driven": tg_cost("trace").slices,
        "TR stochastic": tr_cost("stochastic").slices,
        "TR trace driven": tr_cost("tracedriven").slices,
        "Control module": control_cost().slices,
    }
    part = report_stoch.part
    lines = [
        "Table 1 reproduction (per device instance, XC2VP20):",
        f"{'Device':<18}{'paper':>8}{'ours':>8}{'paper %':>9}"
        f"{'ours %':>9}",
    ]
    for name, paper_slices, paper_pct in PAPER_TABLE1:
        ours = measured[name]
        ours_pct = 100.0 * ours / part.slices
        lines.append(
            f"{name:<18}{paper_slices:>8}{ours:>8}"
            f"{paper_pct:>8.1f}%{ours_pct:>8.1f}%"
        )
        assert ours == paper_slices
        assert ours_pct == pytest.approx(paper_pct, abs=0.1)
    lines.append("")
    lines.append(report_stoch.render())
    lines.append("")
    lines.append(report_trace.render())
    emit("table1_fpga_resources", "\n".join(lines))


def test_table1_whole_platform():
    """Whole stochastic platform: 7387 slices, ~80% of the XC2VP20."""
    report = synthesize(_stochastic_config())
    assert report.part.name == "XC2VP20"
    assert report.total_slices == pytest.approx(
        PAPER_PLATFORM_SLICES, rel=0.01
    )
    assert report.utilisation == pytest.approx(
        PAPER_UTILISATION, abs=0.01
    )
    assert report.fits
    assert report.clock_hz == pytest.approx(50e6)


def test_table1_capacity_planning():
    """Conclusion claim: larger parts host 'tens of switches'."""
    rows = []
    for grid in ((3, 2), (4, 4), (6, 6), (8, 8)):
        cfg = ScenarioSpec(receptors="stochastic").to_platform_config()
        cfg.topology = f"mesh:{grid[0]}:{grid[1]}"
        cfg.routing = "shortest"
        cfg.name = f"mesh{grid[0]}x{grid[1]}"
        report = synthesize(cfg, auto_part=True)
        rows.append(
            {
                "platform": cfg.name,
                "switches": grid[0] * grid[1],
                "slices": report.total_slices,
                "part": report.part.name,
                "util": f"{report.utilisation:.0%}",
            }
        )
    emit("table1_capacity_planning", render_table(rows))
    # 36 and 64 switches fit somewhere in the family.
    assert all(r["part"].startswith("XC2VP") for r in rows)
    big = {r["switches"]: r["part"] for r in rows}
    assert big[36] != "XC2VP20"  # needs a larger family member
