"""FPGA synthesis model (substitute for the Xilinx toolchain + board).

The paper reports per-device slice counts and utilisation on a Virtex-2
Pro (Table 1 / Slide 17) and a 50 MHz platform clock (Slide 18).  We
have no FPGA, so this package models the *accounting*: a component-level
slice cost model calibrated against Table 1, a Virtex-2 Pro part
database, a timing model for the achievable clock, and a synthesis
"flow" producing the utilisation report the paper shows.

Calibration note: the paper's utilisation figures (719 slices = 7.8%,
371 = 4.0%, 18 = 0.2%, platform 7387 = 80%) are all consistent with a
9280-slice part — the XC2VP20 — which is therefore the default target
device.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "ResourceEstimate": ".costs",
    "control_cost": ".costs",
    "switch_cost": ".costs",
    "tg_cost": ".costs",
    "tr_cost": ".costs",
    "FpgaPart": ".device",
    "VIRTEX2PRO_PARTS": ".device",
    "part_by_name": ".device",
    "smallest_fitting_part": ".device",
    "PowerReport": ".power",
    "PowerRow": ".power",
    "estimate_power": ".power",
    "SynthesisReport": ".synthesis",
    "synthesize": ".synthesis",
    "achievable_clock_hz": ".timing",
    "critical_path_ns": ".timing",
})
