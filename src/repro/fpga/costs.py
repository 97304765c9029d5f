"""Slice cost model.

Two kinds of numbers live here:

* **Calibrated device constants** — Table 1 of the paper reports the
  slice cost of each device type at its default geometry (TG stochastic
  719, TG trace-driven 652, TR stochastic 371, TR trace-driven 690,
  control module 18).  These are taken as ground truth.
* **Parametric terms** — the switch cost and the deltas for non-default
  device geometry are modelled structurally (per input buffer, per
  arbiter, per crosspoint, per histogram counter) with constants fitted
  so the paper's whole 4-TG/4-TR/6-switch platform lands on its
  reported 7387 slices (the switch fabric is the residual:
  7387 - 4x719 - 4x371 - 18 = 3009 slices over 6 switches of the
  reconstructed 2x3 mesh).

All costs are in Virtex-II slices (1 slice = 2 LUTs + 2 flip-flops);
trace memories are charged to 18 kbit block RAMs instead of slices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.traffic.trace import TraceTraffic

#: Physical flit width on the emulated links: 32 data bits + 2 type bits.
FLIT_BITS = 34

# --- Table 1 calibration constants (slices at default geometry) -------
TG_STOCHASTIC_SLICES = 719
TG_TRACE_SLICES = 652
TR_STOCHASTIC_SLICES = 371
TR_TRACE_SLICES = 690
CONTROL_SLICES = 18

# --- default geometries the calibration constants correspond to -------
DEFAULT_TG_QUEUE_FLITS = 64
DEFAULT_TR_HIST_COUNTERS = 64  # 16 length + 32 gap + 16 source bins
DEFAULT_TR_LAT_BINS = 64

# --- structural switch model constants (fitted, see module docstring) -
_INPUT_SLICES_PER_DEPTH = 17  # 34-bit flit register pair per slice
_INPUT_BASE_SLICES = 12  # route lookup + credit counter per input
_ARBITER_BASE_SLICES = 4
_ARBITER_SLICES_PER_INPUT = 2
_CROSSPOINT_SLICES = 10
_SWITCH_BASE_SLICES = 30

# --- marginal costs of non-default device geometry --------------------
_QUEUE_SLICES_PER_FLIT = FLIT_BITS / 2 / 16  # queue kept in SRL16 LUTs
_HIST_SLICES_PER_COUNTER = 1.0  # one 32-bit counter per ~1 slice column
_BRAM_BITS = 18 * 1024
_TRACE_RECORD_BITS = 48  # cycle delta + dst + length + burst id


@dataclass(frozen=True)
class ResourceEstimate:
    """Slice + block-RAM estimate of one component."""

    name: str
    slices: int
    bram_blocks: int = 0

    def __add__(self, other: "ResourceEstimate") -> "ResourceEstimate":
        return ResourceEstimate(
            name=f"{self.name}+{other.name}",
            slices=self.slices + other.slices,
            bram_blocks=self.bram_blocks + other.bram_blocks,
        )


def switch_cost(
    n_inputs: int, n_outputs: int, buffer_depth: int
) -> ResourceEstimate:
    """Structural slice cost of one switch.

    Per input: the flit FIFO (two 34-bit registers per slice, times the
    depth) plus route-lookup and credit logic; per output: a round-robin
    arbiter growing with the input count; plus the crossbar (per
    crosspoint) and a fixed control base.
    """
    if n_inputs < 1 or n_outputs < 1 or buffer_depth < 1:
        raise ValueError("switch parameters must be >= 1")
    per_input = (
        _INPUT_SLICES_PER_DEPTH * buffer_depth + _INPUT_BASE_SLICES
    )
    per_output = _ARBITER_BASE_SLICES + _ARBITER_SLICES_PER_INPUT * n_inputs
    crossbar = _CROSSPOINT_SLICES * n_inputs * n_outputs
    slices = (
        n_inputs * per_input
        + n_outputs * per_output
        + crossbar
        + _SWITCH_BASE_SLICES
    )
    return ResourceEstimate(
        name=f"switch_{n_inputs}x{n_outputs}_d{buffer_depth}",
        slices=slices,
    )


def tg_cost(
    model: str,
    queue_limit: int = DEFAULT_TG_QUEUE_FLITS,
    trace_records: int = 0,
) -> ResourceEstimate:
    """Slice cost of one traffic generator.

    ``model`` is a traffic-model tag; every stochastic model shares the
    one stochastic-TG datapath of Table 1 (the model is a register
    setting, not different hardware), while ``trace`` selects the
    trace-driven TG, whose trace memory is charged to block RAM.
    """
    if queue_limit < 1:
        raise ValueError("queue limit must be >= 1 flit")
    extra_queue = max(0, queue_limit - DEFAULT_TG_QUEUE_FLITS)
    delta = math.ceil(extra_queue * _QUEUE_SLICES_PER_FLIT)
    if model == "trace":
        bram = math.ceil(
            max(1, trace_records) * _TRACE_RECORD_BITS / _BRAM_BITS
        )
        return ResourceEstimate(
            name="tg_trace",
            slices=TG_TRACE_SLICES + delta,
            bram_blocks=bram,
        )
    if model in ("uniform", "burst", "poisson", "onoff"):
        return ResourceEstimate(
            name="tg_stochastic", slices=TG_STOCHASTIC_SLICES + delta
        )
    raise ValueError(f"unknown traffic model {model!r}")


def tg_spec_cost(tg) -> ResourceEstimate:
    """:func:`tg_cost` of one configured TG (a ``TGSpec``), whose trace
    memory holds the trace its model replays: the one given, else
    ``n_bursts * packets_per_burst`` synthetic records."""
    records = 0
    if tg.model == "trace":
        params = {n: p.default for n, p in TraceTraffic.PARAMS.items()}
        params.update(tg.params)
        if params["trace"] is not None:
            records = len(params["trace"])
        else:
            records = params["n_bursts"] * params["packets_per_burst"]
    return tg_cost(tg.model, queue_limit=tg.queue_limit, trace_records=records)


def tr_cost(
    kind: str,
    histogram_counters: int = DEFAULT_TR_HIST_COUNTERS,
    latency_bins: int = DEFAULT_TR_LAT_BINS,
) -> ResourceEstimate:
    """Slice cost of one traffic receptor.

    Stochastic receptors scale with their total histogram counter
    count; trace-driven receptors with their latency histogram bins.
    """
    if kind == "stochastic":
        if histogram_counters < 1:
            raise ValueError("receptor needs >= 1 histogram counter")
        delta = math.ceil(
            max(0, histogram_counters - DEFAULT_TR_HIST_COUNTERS)
            * _HIST_SLICES_PER_COUNTER
        )
        return ResourceEstimate(
            name="tr_stochastic", slices=TR_STOCHASTIC_SLICES + delta
        )
    if kind == "tracedriven":
        if latency_bins < 1:
            raise ValueError("receptor needs >= 1 latency bin")
        delta = math.ceil(
            max(0, latency_bins - DEFAULT_TR_LAT_BINS)
            * _HIST_SLICES_PER_COUNTER
        )
        return ResourceEstimate(
            name="tr_tracedriven", slices=TR_TRACE_SLICES + delta
        )
    raise ValueError(f"unknown receptor kind {kind!r}")


def control_cost() -> ResourceEstimate:
    """The control module (Table 1: 18 slices)."""
    return ResourceEstimate(name="control", slices=CONTROL_SLICES)
