"""The NoC emulation flow (Slide 14).

Six steps::

    1) Platform compilation   -- elaborate the hardware (HW, cached)
    2) Physical synthesis     -- FPGA map/place model   (HW, cached)
    3) Platform initialization-- write software settings over the bus
    4) Software compilation   -- build the run plan (firmware build)
    5) Emulation on FPGA      -- run the engine
    6) Final report           -- monitor readout

The central claim of the flow (Slide 13) is that it "avoids often
hardware re-synthesis": changing traffic parameters, seeds, packet
budgets or routing tables only repeats steps 3-6.  The flow enforces
this by caching steps 1-2 keyed on the configuration's
:meth:`~repro.core.config.PlatformConfig.hardware_signature`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.config import PlatformConfig
from repro.core.devices import to_q16
from repro.core.engine import EmulationEngine, EngineResult
from repro.core.monitor import Monitor
from repro.core.platform import EmulationPlatform, build_platform
from repro.core.processor import Processor
from repro.fpga.synthesis import SynthesisReport, synthesize
from repro.traffic.burst import BurstTraffic
from repro.traffic.poisson import PoissonTraffic


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
    """Runs configurations through the six-step flow with HW caching."""

    def __init__(self) -> None:
        self._hw_cache: Dict[
            Tuple, Tuple[EmulationPlatform, SynthesisReport]
        ] = {}
        self.synthesis_runs = 0  # how many times step 2 really ran

    # ------------------------------------------------------------------
    # Steps 1-2: hardware (cached)
    # ------------------------------------------------------------------
    def _hardware(
        self, config: PlatformConfig
    ) -> Tuple[EmulationPlatform, SynthesisReport, bool]:
        key = config.hardware_signature()
        if key in self._hw_cache:
            platform, synthesis = self._hw_cache[key]
            # Same bitstream, new software: rebuild the platform object
            # (the software settings differ) but do NOT re-synthesise.
            platform = build_platform(config)
            return platform, synthesis, False
        platform = build_platform(config)  # step 1
        synthesis = synthesize(config)  # step 2
        self.synthesis_runs += 1
        self._hw_cache[key] = (platform, synthesis)
        return platform, synthesis, True

    # ------------------------------------------------------------------
    # Step 3: platform initialisation over the bus
    # ------------------------------------------------------------------
    def _initialise(
        self, platform: EmulationPlatform, config: PlatformConfig
    ) -> Processor:
        processor = Processor(platform)
        for spec in config.tgs:
            params: Dict[int, int] = {}
            generator = next(
                g for g in platform.generators if g.node == spec.node
            )
            model = generator.model
            # Mirror the live model's probability parameters into their
            # Q16 registers, exercising the bus path end to end.
            if isinstance(model, BurstTraffic):
                params[1] = to_q16(min(1.0, model.p_on))
                params[2] = to_q16(min(1.0, model.p_off))
            elif isinstance(model, PoissonTraffic):
                params[1] = to_q16(min(1.0, model.rate))
            processor.initialise_generator(
                spec.node,
                seed=spec.seed,
                max_packets=spec.max_packets or 0,
                params=params,
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
