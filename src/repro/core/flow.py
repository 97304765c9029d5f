"""The NoC emulation flow (Slide 14).

Six steps::

    1) Platform compilation   -- elaborate the hardware (HW)
    2) Physical synthesis     -- FPGA map/place model   (HW, cached)
    3) Platform initialization-- write software settings over the bus
    4) Software compilation   -- build the run plan (firmware build)
    5) Emulation on FPGA      -- run the engine
    6) Final report           -- monitor readout

The central claim of the flow (Slide 13) is that it "avoids often
hardware re-synthesis": changing traffic parameters, seeds, packet
budgets or routing tables only repeats steps 3-6.  The flow enforces
this by caching step 2's report keyed on the configuration's
:meth:`~repro.core.config.PlatformConfig.hardware_signature`.

Step 3 writes each TG's seed and packet budget over the bus, applies
them with a TG reset and clears the statistics.  Those are values the
platform was built with, so a flow run computes exactly what
``EmulationEngine(build_platform(config)).run()`` does; it exercises
the bus path without changing the model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.config import PlatformConfig
from repro.core.engine import EmulationEngine, EngineResult
from repro.core.monitor import Monitor
from repro.core.platform import EmulationPlatform, build_platform
from repro.core.processor import Processor
from repro.fpga.synthesis import SynthesisReport, synthesize


@dataclass
class FlowReport:
    """Everything one pass through the flow produced."""

    config_name: str
    resynthesized: bool
    synthesis: SynthesisReport
    result: EngineResult
    report_text: str
    step_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def hardware_steps_skipped(self) -> bool:
        return not self.resynthesized


class EmulationFlow:
    """Runs configurations through the six-step flow, synthesising
    each hardware signature once."""

    def __init__(self) -> None:
        self._hw_cache: Dict[Tuple, SynthesisReport] = {}
        self.synthesis_runs = 0  # how many times step 2 really ran

    # ------------------------------------------------------------------
    # Steps 1-2: hardware (synthesis cached)
    # ------------------------------------------------------------------
    def _hardware(
        self, config: PlatformConfig
    ) -> Tuple[EmulationPlatform, SynthesisReport, bool]:
        """Step 1 (a fresh platform: same bitstream, new software) and
        step 2's report, synthesised only for a new hardware
        signature; the third item says whether it was."""
        platform = build_platform(config)
        key = config.hardware_signature()
        synthesis = self._hw_cache.get(key)
        if synthesis is not None:
            return platform, synthesis, False
        synthesis = self._hw_cache[key] = synthesize(config)
        self.synthesis_runs += 1
        return platform, synthesis, True

    # ------------------------------------------------------------------
    # Step 3: platform initialisation over the bus
    # ------------------------------------------------------------------
    def _initialise(
        self, platform: EmulationPlatform, config: PlatformConfig
    ) -> Processor:
        processor = Processor(platform)
        for spec in config.tgs:
            processor.initialise_generator(
                spec.node,
                seed=spec.seed,
                max_packets=spec.max_packets or 0,
            )
        processor.reset_statistics()
        return processor

    # ------------------------------------------------------------------
    # The whole flow
    # ------------------------------------------------------------------
    def run(
        self,
        config: PlatformConfig,
        max_cycles: Optional[int] = None,
        max_packets: Optional[int] = None,
    ) -> FlowReport:
        """Steps 1-6 for one configuration."""
        steps: Dict[str, float] = {}

        t0 = time.perf_counter()  # repro: allow[wall-clock] per-step flow timing telemetry (FlowReport.steps)
        platform, synthesis, resynthesized = self._hardware(config)
        steps["1-2 hardware"] = time.perf_counter() - t0  # repro: allow[wall-clock] per-step flow timing telemetry (FlowReport.steps)

        t0 = time.perf_counter()  # repro: allow[wall-clock] per-step flow timing telemetry (FlowReport.steps)
        self._initialise(platform, config)
        steps["3 initialisation"] = time.perf_counter() - t0  # repro: allow[wall-clock] per-step flow timing telemetry (FlowReport.steps)

        t0 = time.perf_counter()  # repro: allow[wall-clock] per-step flow timing telemetry (FlowReport.steps)
        engine = EmulationEngine(platform)  # step 4: the run plan
        steps["4 software"] = time.perf_counter() - t0  # repro: allow[wall-clock] per-step flow timing telemetry (FlowReport.steps)

        t0 = time.perf_counter()  # repro: allow[wall-clock] per-step flow timing telemetry (FlowReport.steps)
        result = engine.run(
            max_cycles=max_cycles, max_packets=max_packets
        )
        steps["5 emulation"] = time.perf_counter() - t0  # repro: allow[wall-clock] per-step flow timing telemetry (FlowReport.steps)

        t0 = time.perf_counter()  # repro: allow[wall-clock] per-step flow timing telemetry (FlowReport.steps)
        report_text = Monitor(platform).final_report(result)
        steps["6 report"] = time.perf_counter() - t0  # repro: allow[wall-clock] per-step flow timing telemetry (FlowReport.steps)

        return FlowReport(
            config_name=config.name,
            resynthesized=resynthesized,
            synthesis=synthesis,
            result=result,
            report_text=report_text,
            step_seconds=steps,
        )
