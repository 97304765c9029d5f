"""The physical-synthesis step (flow step 2).

Produces the FPGA utilisation report of the paper's Slide 17: one row
per device type with slice count and device percentage, plus totals,
the chosen part, and the achievable clock.  This stands in for the
Xilinx synthesis/map/par run of the real flow (DESIGN.md §2) and is
deliberately slow to *re-run* in the flow's accounting, so the flow's
caching of hardware steps has something real to save.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.fpga.costs import (
    ResourceEstimate,
    control_cost,
    switch_cost,
    tg_spec_cost,
    tr_cost,
)
from repro.fpga.device import (
    FpgaPart,
    PAPER_PART_NAME,
    part_by_name,
    smallest_fitting_part,
)
from repro.fpga.timing import platform_clock_hz


@dataclass
class SynthesisReport:
    """Result of synthesising one platform configuration."""

    platform_name: str
    part: FpgaPart
    rows: List[Tuple[str, int, float]]  # (device, slices, % of part)
    total_slices: int
    total_bram: int
    clock_hz: float
    fits: bool

    @property
    def utilisation(self) -> float:
        return self.part.utilisation(self.total_slices)

    def row_for(self, device_name: str) -> Tuple[str, int, float]:
        for row in self.rows:
            if row[0] == device_name:
                return row
        raise KeyError(f"no synthesis row for device {device_name!r}")

    def render(self) -> str:
        """Plain-text table in the layout of the paper's Slide 17."""
        lines = [
            f"Synthesis report: {self.platform_name} on {self.part.name}",
            f"Clock: {self.clock_hz / 1e6:.0f} MHz",
            "",
            f"{'Device':<24}{'Number of slices':>18}"
            f"{'FPGA percentage (%)':>22}",
            "-" * 64,
        ]
        for name, slices, pct in self.rows:
            lines.append(f"{name:<24}{slices:>18}{pct:>21.1f}%")
        lines.append("-" * 64)
        lines.append(
            f"{'whole platform':<24}{self.total_slices:>18}"
            f"{self.utilisation * 100:>21.1f}%"
        )
        if self.total_bram:
            lines.append(
                f"{'block RAM (18kb)':<24}{self.total_bram:>18}"
            )
        if not self.fits:
            lines.append(
                f"** DOES NOT FIT {self.part.name}"
                f" ({self.part.slices} slices) **"
            )
        return "\n".join(lines)


def synthesize(config, auto_part: bool = False) -> SynthesisReport:
    """Run the synthesis model on a platform configuration.

    The target device is the paper's XC2VP20; ``auto_part=True``
    instead picks the smallest family member that fits, which is how
    the capacity-planning bench explores the "larger FPGAs -> tens of
    switches" claim of the conclusion.
    """
    topology = config.resolve_topology()
    # Per-type aggregation: one row per device *type* as in the paper,
    # costing each instance at its real geometry.
    type_totals: Dict[str, ResourceEstimate] = {}

    def accumulate(row_name: str, estimate: ResourceEstimate) -> None:
        if row_name in type_totals:
            prior = type_totals[row_name]
            type_totals[row_name] = ResourceEstimate(
                row_name,
                prior.slices + estimate.slices,
                prior.bram_blocks + estimate.bram_blocks,
            )
        else:
            type_totals[row_name] = ResourceEstimate(
                row_name, estimate.slices, estimate.bram_blocks
            )

    for tg in config.tgs:
        estimate = tg_spec_cost(tg)
        row = (
            "TG trace driven" if tg.model == "trace" else "TG stochastic"
        )
        accumulate(row, estimate)
    for tr in config.trs:
        estimate = tr_cost(tr.kind, **_tr_geometry(tr))
        row = (
            "TR stochastic"
            if tr.kind == "stochastic"
            else "TR trace driven"
        )
        accumulate(row, estimate)
    accumulate("Control module", control_cost())
    switch_total = 0
    for s in range(topology.n_switches):
        switch_total += switch_cost(
            topology.n_inputs(s),
            topology.n_outputs(s),
            config.buffer_depth,
        ).slices
    accumulate(
        "Switch fabric", ResourceEstimate("switches", switch_total)
    )

    total_slices = sum(e.slices for e in type_totals.values())
    total_bram = sum(e.bram_blocks for e in type_totals.values())
    if auto_part:
        chosen = smallest_fitting_part(total_slices, total_bram)
        if chosen is None:
            chosen = part_by_name("XC2VP100")
    else:
        chosen = part_by_name(PAPER_PART_NAME)
    rows = [
        (name, est.slices, 100.0 * est.slices / chosen.slices)
        for name, est in type_totals.items()
    ]
    return SynthesisReport(
        platform_name=config.name,
        part=chosen,
        rows=rows,
        total_slices=total_slices,
        total_bram=total_bram,
        clock_hz=platform_clock_hz(config),
        fits=chosen.fits(total_slices, total_bram),
    )


def _tr_geometry(tr_spec) -> Dict[str, int]:
    """Histogram geometry of a receptor spec, for the cost model."""
    params = tr_spec.params
    if tr_spec.kind == "stochastic":
        counters = (
            params.get("length_bins", 16)
            + params.get("gap_bins", 32)
            + params.get("n_sources", 16)
        )
        return {"histogram_counters": counters}
    return {"latency_bins": params.get("latency_bins", 64)}
