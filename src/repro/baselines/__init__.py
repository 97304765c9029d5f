"""Baseline simulators for the speed comparison (Slide 18).

The paper compares its FPGA emulation against two software simulators
of the same NoC: a cycle-accurate SystemC model (MPARM, 20 Kcycles/s)
and an RTL Verilog simulation (ModelSim, 3.2 Kcycles/s).  We rebuild
both *kinds* of simulator in Python:

* ``repro.baselines.eventsim`` — a generic event-driven simulation
  kernel with signals, processes and delta cycles (a miniature VHDL/
  Verilog simulator kernel).
* ``repro.baselines.rtl`` — the platform switch re-implemented at RTL
  granularity on that kernel (registers, combinational processes,
  per-signal events), wired into the paper's 6-switch platform.
* ``repro.baselines.tlm`` — a SystemC-like cycle-accurate engine
  (clocked processes, evaluate/update channels) running the same
  switch semantics.
* ``repro.baselines.speed`` — the harness that measures the emulated
  cycles per wall-clock second of every engine and renders the paper's
  speed table.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "EventSimulator": ".eventsim",
    "Process": ".eventsim",
    "Signal": ".eventsim",
    "RtlPlatformSim": ".rtl",
    "RtlSwitch": ".rtl",
    "measure_engine_speeds": ".speed",
    "speed_report": ".speed",
    "TlmKernel": ".tlm",
    "TlmPlatformSim": ".tlm",
    "VcdTracer": ".vcd",
})
