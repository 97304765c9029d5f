"""Activity-based power estimation.

An extension beyond the paper (the slides report area and speed only),
but a natural one for the platform: the statistics the emulation
already gathers — flits forwarded per switch, flits injected/received
per device — are exactly the switching-activity inputs an FPGA power
estimator needs.  The model follows the standard CMOS decomposition::

    P_total = P_static + P_dynamic
    P_static  = slices_total x p_static_per_slice        (leakage)
    P_dynamic = sum over components:
                slices x p_dyn_per_slice x (f / f_ref) x activity

with Virtex-II-Pro-class constants.  Activity is the measured fraction
of cycles a component toggled (moved a flit), in [0, 1].

The absolute milliwatt numbers are indicative, not sign-off quality;
what the model is *for* is comparing configurations — e.g. the
buffer-depth ablation trades slices (static power) against congestion
(activity duration) — using measured emulation statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.config import F_CLK_HZ
from repro.fpga.costs import control_cost, switch_cost, tg_cost, tr_cost

#: Leakage per occupied slice (mW) — Virtex-II Pro class, 1.5 V core.
STATIC_MW_PER_SLICE = 0.012

#: Dynamic power per slice at 100% activity and the reference clock.
DYNAMIC_MW_PER_SLICE = 0.19

#: Reference clock for the dynamic constant.
F_REF_HZ = 100e6


@dataclass
class PowerRow:
    """Power of one platform component."""

    name: str
    slices: int
    activity: float
    static_mw: float
    dynamic_mw: float

    @property
    def total_mw(self) -> float:
        return self.static_mw + self.dynamic_mw


@dataclass
class PowerReport:
    """Per-component and total power of one emulation run."""

    platform_name: str
    clock_hz: float
    rows: List[PowerRow]

    @property
    def static_mw(self) -> float:
        return sum(r.static_mw for r in self.rows)

    @property
    def dynamic_mw(self) -> float:
        return sum(r.dynamic_mw for r in self.rows)

    @property
    def total_mw(self) -> float:
        return self.static_mw + self.dynamic_mw

    def row_for(self, name: str) -> PowerRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(f"no power row for {name!r}")

    def render(self) -> str:
        lines = [
            f"Power estimate: {self.platform_name}"
            f" @ {self.clock_hz / 1e6:.0f} MHz",
            f"{'Component':<16}{'slices':>8}{'activity':>10}"
            f"{'static mW':>11}{'dynamic mW':>12}{'total mW':>10}",
            "-" * 67,
        ]
        for r in self.rows:
            lines.append(
                f"{r.name:<16}{r.slices:>8}{r.activity:>9.1%}"
                f"{r.static_mw:>11.2f}{r.dynamic_mw:>12.2f}"
                f"{r.total_mw:>10.2f}"
            )
        lines.append("-" * 67)
        lines.append(
            f"{'total':<16}{'':>8}{'':>10}{self.static_mw:>11.2f}"
            f"{self.dynamic_mw:>12.2f}{self.total_mw:>10.2f}"
        )
        return "\n".join(lines)


def _dynamic_mw(slices: int, activity: float) -> float:
    activity = min(1.0, max(0.0, activity))
    return (
        slices * DYNAMIC_MW_PER_SLICE * (F_CLK_HZ / F_REF_HZ) * activity
    )


def estimate_power(platform):
    """Power report for a run of an :class:`EmulationPlatform`, over
    the platform's cycles so far."""
    config = platform.config
    cycles = max(1, platform.cycle)
    rows: List[PowerRow] = []

    for switch in platform.network.switches:
        est = switch_cost(
            switch.config.n_inputs,
            switch.config.n_outputs,
            switch.config.buffer_depth,
        )
        # A switch is "active" in a cycle proportionally to the ports
        # that moved a flit.
        port_cycles = cycles * switch.config.n_outputs
        activity = switch.flits_forwarded / port_cycles
        rows.append(
            PowerRow(
                name=f"switch{switch.switch_id}",
                slices=est.slices,
                activity=activity,
                static_mw=est.slices * STATIC_MW_PER_SLICE,
                dynamic_mw=_dynamic_mw(est.slices, activity),
            )
        )

    for generator, device in zip(
        platform.generators, platform.tg_devices
    ):
        spec_model = device.bank["MODEL_TYPE"].read()
        model = "trace" if spec_model == 5 else "uniform"
        est = tg_cost(model, queue_limit=generator.queue_limit)
        activity = generator.flits_sent / cycles
        rows.append(
            PowerRow(
                name=f"tg{generator.node}",
                slices=est.slices,
                activity=min(1.0, activity),
                static_mw=est.slices * STATIC_MW_PER_SLICE,
                dynamic_mw=_dynamic_mw(est.slices, activity),
            )
        )

    for receptor in platform.receptors:
        kind = (
            "stochastic"
            if type(receptor).__name__ == "StochasticReceptor"
            else "tracedriven"
        )
        est = tr_cost(kind)
        activity = receptor.flits_received / cycles
        rows.append(
            PowerRow(
                name=f"tr{receptor.node}",
                slices=est.slices,
                activity=min(1.0, activity),
                static_mw=est.slices * STATIC_MW_PER_SLICE,
                dynamic_mw=_dynamic_mw(est.slices, activity),
            )
        )

    control = control_cost()
    rows.append(
        PowerRow(
            name="control",
            slices=control.slices,
            activity=1.0,  # the control module's counters always tick
            static_mw=control.slices * STATIC_MW_PER_SLICE,
            dynamic_mw=_dynamic_mw(control.slices, 1.0),
        )
    )
    return PowerReport(
        platform_name=config.name, clock_hz=F_CLK_HZ, rows=rows
    )
