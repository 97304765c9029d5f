"""Traffic generator and receptor devices (the memory-mapped shells).

Slide 10: a TG is "a bench of registers for traffic parameterization
[and] random initialization, a packet generator ... and a network
interface".  The packet generator and NI live in ``repro.traffic`` and
``repro.noc``; this module provides the register bench on top, so the
processor configures and observes every unit purely through bus
accesses — which is what lets parameter changes skip re-synthesis.

Probabilities and rates cross the bus in Q16 fixed point (16 fractional
bits), as a hardware register bank would carry them.
"""

from __future__ import annotations

from typing import Optional

from repro.core.bus import Device
from repro.core.errors import EmulationError
from repro.core.registers import RegisterBank
from repro.receptors.base import TrafficReceptor
from repro.receptors.stochastic import StochasticReceptor
from repro.receptors.tracedriven import TraceDrivenReceptor
from repro.traffic.burst import BurstTraffic
from repro.traffic.generator import TrafficGenerator
from repro.traffic.onoff import OnOffTraffic
from repro.traffic.poisson import PoissonTraffic
from repro.traffic.trace import TraceTraffic
from repro.traffic.uniform import UniformTraffic

Q16 = 1 << 16

#: MODEL_TYPE register encoding.
MODEL_CODES = {
    UniformTraffic: 1,
    BurstTraffic: 2,
    PoissonTraffic: 3,
    OnOffTraffic: 4,
    TraceTraffic: 5,
}

TG_CTRL_ENABLE = 1 << 0
TG_CTRL_RESET = 1 << 1


def to_q16(value: float) -> int:
    """Encode a fraction in [0, 1] as a Q16 register value."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"Q16 fraction must be in [0, 1], got {value}")
    return round(value * Q16)


def from_q16(raw: int) -> float:
    """Decode a Q16 register value into a float fraction."""
    return (raw & 0xFFFFFFFF) / Q16


class TGDevice(Device):
    """Register bench of one traffic generator.

    ========== ==== ==================================================
    register   mode purpose
    ========== ==== ==================================================
    CTRL       rw   bit 0 enable; bit 1 reset (self-clearing)
    SEED       rw   random-initialisation register (applied on reset)
    MAX_PKTS   rw   packet budget (0 = unlimited)
    MODEL_TYPE ro   traffic model code (see MODEL_CODES)
    PARAM0..2  rw   model parameters (meaning depends on the model)
    SENT       ro   packets emitted so far
    FLITS      ro   flits emitted so far
    BACKPRES   ro   cycles stalled on a full NI queue
    ========== ==== ==================================================

    Parameter register meaning per model:

    * uniform: PARAM0 = packet length, PARAM1 = interval (cycles)
    * burst:   PARAM0 = packet length, PARAM1 = p_on (Q16),
      PARAM2 = p_off (Q16)
    * poisson: PARAM0 = packet length, PARAM1 = rate (Q16 pkts/cycle)
    * onoff:   PARAM0 = packet length, PARAM1 = packets/burst,
      PARAM2 = gap (cycles)
    * trace:   parameters are read-only (PARAM0 = trace length)
    """

    kind = "tg"

    def __init__(self, name: str, generator: TrafficGenerator) -> None:
        super().__init__(name)
        self.generator = generator

    def _define_registers(self, bank: RegisterBank) -> None:
        generator = self.generator
        model = generator.model
        bank.define("CTRL", value=TG_CTRL_ENABLE, on_write=self._write_ctrl)
        bank.define("SEED", value=model._seed & 0xFFFFFFFF)
        bank.define(
            "MAX_PKTS",
            value=generator.max_packets or 0,
            on_write=self._write_max_packets,
        )
        bank.define(
            "MODEL_TYPE",
            value=MODEL_CODES.get(type(model), 0),
            writable=False,
        )
        for i in range(3):
            bank.define(
                f"PARAM{i}",
                value=self._param_read(i),
                on_write=lambda v, _i=i: self._write_param(_i, v),
            )
        bank.define(
            "SENT",
            writable=False,
            on_read=lambda: self.generator.packets_sent,
        )
        bank.define(
            "FLITS",
            writable=False,
            on_read=lambda: self.generator.flits_sent,
        )
        bank.define(
            "BACKPRES",
            writable=False,
            on_read=lambda: self.generator.backpressure_cycles,
        )

    # ------------------------------------------------------------------
    # Register behaviour
    # ------------------------------------------------------------------
    def _write_ctrl(self, value: int) -> None:
        if value & TG_CTRL_ENABLE:
            self.generator.enable()
        else:
            self.generator.disable()
        if value & TG_CTRL_RESET:
            self.generator.reset(seed=self.bank["SEED"].read())
            self.bank["CTRL"].poke(value & ~TG_CTRL_RESET)

    def _write_max_packets(self, value: int) -> None:
        self.generator.max_packets = value if value else None
        # A raised budget can revive a "done" generator; drop any
        # cached poll schedule that assumed it finished.
        self.generator.wake()

    def _param_read(self, index: int) -> int:
        model = self.generator.model
        if isinstance(model, UniformTraffic):
            if index == 0:
                return model._length_range[0]
            if index == 1:
                return model._interval_range[0]
        elif isinstance(model, BurstTraffic):
            if index == 0:
                return model.length
            if index == 1:
                return to_q16(model.p_on)
            if index == 2:
                return to_q16(model.p_off)
        elif isinstance(model, PoissonTraffic):
            if index == 0:
                return model.length
            if index == 1:
                return to_q16(model.rate)
        elif isinstance(model, OnOffTraffic):
            if index == 0:
                return model.length
            if index == 1:
                return model.packets_per_burst
            if index == 2:
                return model.gap
        elif isinstance(model, TraceTraffic):
            if index == 0:
                return len(model.trace)
        return 0

    def _write_param(self, index: int, value: int) -> None:
        model = self.generator.model
        if isinstance(model, UniformTraffic):
            if index == 0:
                if value < 1:
                    raise EmulationError("packet length must be >= 1")
                model._length_range = (value, value)
            elif index == 1:
                if value < 1:
                    raise EmulationError("interval must be >= 1")
                model._interval_range = (value, value)
        elif isinstance(model, BurstTraffic):
            if index == 0:
                model.length = max(1, value)
            elif index == 1:
                model.p_on = max(from_q16(value), 1.0 / Q16)
            elif index == 2:
                model.p_off = max(from_q16(value), 1.0 / Q16)
        elif isinstance(model, PoissonTraffic):
            if index == 0:
                model.length = max(1, value)
            elif index == 1:
                model.rate = min(1.0, max(from_q16(value), 1.0 / Q16))
        elif isinstance(model, OnOffTraffic):
            if index == 0:
                model.length = max(1, value)
            elif index == 1:
                model.packets_per_burst = max(1, value)
            elif index == 2:
                model.gap = value
        elif isinstance(model, TraceTraffic):
            raise EmulationError(
                "trace-driven TG parameters are read-only; load a"
                " different trace instead"
            )

    def describe(self) -> str:
        model = type(self.generator.model).__name__
        return (
            f"tg {self.name} node {self.generator.node} model {model}"
            f" sent {self.generator.packets_sent}"
        )


TR_CTRL_ENABLE = 1 << 0
TR_CTRL_RESET = 1 << 1

#: KIND register encoding.
TR_KIND_CODES = {"stochastic": 1, "tracedriven": 2}

#: HIST_SELECT register encoding for the stochastic receptor.
HIST_LENGTH, HIST_GAP, HIST_SOURCE = 0, 1, 2


class TRDevice(Device):
    """Register bench of one traffic receptor.

    Common registers: CTRL (enable/reset), KIND (ro), PACKETS, FLITS,
    RUNTIME (all ro).  Trace-driven receptors add the latency-analyzer
    and congestion-counter registers; stochastic receptors expose their
    histograms through a select/index/data window, which is how the
    monitor drains counter banks over the bus.
    """

    kind = "tr"

    def __init__(self, name: str, receptor: TrafficReceptor) -> None:
        super().__init__(name)
        self.receptor = receptor

    def _define_registers(self, bank: RegisterBank) -> None:
        receptor = self.receptor
        bank.define(
            "CTRL", value=TR_CTRL_ENABLE, on_write=self._write_ctrl
        )
        if isinstance(receptor, StochasticReceptor):
            kind_code = TR_KIND_CODES["stochastic"]
        elif isinstance(receptor, TraceDrivenReceptor):
            kind_code = TR_KIND_CODES["tracedriven"]
        else:
            kind_code = 0
        bank.define("KIND", value=kind_code, writable=False)
        bank.define(
            "PACKETS",
            writable=False,
            on_read=lambda: self.receptor.packets_received,
        )
        bank.define(
            "FLITS",
            writable=False,
            on_read=lambda: self.receptor.flits_received,
        )
        bank.define(
            "RUNTIME",
            writable=False,
            on_read=lambda: self.receptor.running_time,
        )
        if isinstance(receptor, TraceDrivenReceptor):
            self._define_tracedriven(bank, receptor)
        if isinstance(receptor, StochasticReceptor):
            self._define_stochastic(bank)

    def _write_ctrl(self, value: int) -> None:
        self.receptor.enabled = bool(value & TR_CTRL_ENABLE)
        if value & TR_CTRL_RESET:
            self.receptor.reset()
            self.bank["CTRL"].poke(value & ~TR_CTRL_RESET)

    # ------------------------------------------------------------------
    # Trace-driven registers (latency analyzer + congestion counter)
    # ------------------------------------------------------------------
    def _define_tracedriven(
        self, bank: RegisterBank, receptor: TraceDrivenReceptor
    ) -> None:
        lat = receptor.latency
        con = receptor.congestion
        bank.define(
            "LAT_MIN",
            writable=False,
            on_read=lambda: lat.min_latency or 0,
        )
        bank.define(
            "LAT_MAX",
            writable=False,
            on_read=lambda: lat.max_latency or 0,
        )
        bank.define(
            "LAT_SUM_LO",
            writable=False,
            on_read=lambda: lat.total_latency & 0xFFFFFFFF,
        )
        bank.define(
            "LAT_SUM_HI",
            writable=False,
            on_read=lambda: lat.total_latency >> 32,
        )
        bank.define(
            "LAT_COUNT", writable=False, on_read=lambda: lat.count
        )
        bank.define(
            "STALL_LO",
            writable=False,
            on_read=lambda: con.total_stall_cycles & 0xFFFFFFFF,
        )
        bank.define(
            "STALL_HI",
            writable=False,
            on_read=lambda: con.total_stall_cycles >> 32,
        )
        bank.define(
            "CONGESTED",
            writable=False,
            on_read=lambda: con.congested_packets,
        )

    # ------------------------------------------------------------------
    # Stochastic registers (histogram window)
    # ------------------------------------------------------------------
    def _define_stochastic(self, bank: RegisterBank) -> None:
        bank.define("HIST_SELECT", value=HIST_LENGTH)
        bank.define("HIST_INDEX", value=0)
        bank.define(
            "HIST_DATA", writable=False, on_read=self._read_hist_data
        )
        bank.define(
            "HIST_OVERFLOW",
            writable=False,
            on_read=lambda: self._selected_histogram().overflow,
        )
        bank.define(
            "HIST_TOTAL",
            writable=False,
            on_read=lambda: self._selected_histogram().total,
        )

    def _selected_histogram(self):
        receptor = self.receptor
        assert isinstance(receptor, StochasticReceptor)
        select = self.bank["HIST_SELECT"].read()
        if select == HIST_LENGTH:
            return receptor.length_histogram
        if select == HIST_GAP:
            return receptor.gap_histogram
        if select == HIST_SOURCE:
            return receptor.source_histogram
        raise EmulationError(
            f"HIST_SELECT={select} selects no histogram (0..2 valid)"
        )

    def _read_hist_data(self) -> int:
        histogram = self._selected_histogram()
        index = self.bank["HIST_INDEX"].read()
        if not 0 <= index < histogram.n_bins:
            raise EmulationError(
                f"HIST_INDEX={index} beyond histogram"
                f" ({histogram.n_bins} bins)"
            )
        return histogram.counts[index]

    def describe(self) -> str:
        return (
            f"tr {self.name} node {self.receptor.node}"
            f" packets {self.receptor.packets_received}"
        )
