"""repro — a reproduction of "A Complete Network-On-Chip Emulation
Framework" (Genko, Atienza, De Micheli, Mendias, Hermida, Catthoor —
DATE 2005).

The package models the paper's FPGA-hosted NoC emulation platform in
pure Python: a cycle-level network of parameterisable switches
(``repro.noc``), stochastic and trace-driven traffic generators
(``repro.traffic``), statistics receptors (``repro.receptors``,
``repro.stats``), the memory-mapped HW/SW platform with its processor,
monitor and six-step emulation flow (``repro.core``), an FPGA
synthesis/resource model calibrated against the paper's Table 1
(``repro.fpga``), and the RTL/TLM baseline simulators of the speed
comparison (``repro.baselines``).

Quickstart::

    from repro import EmulationFlow, ScenarioSpec

    flow = EmulationFlow()
    report = flow.run(ScenarioSpec(packets=2000).to_platform_config())
    print(report.report_text)

Every exported name resolves on first use: ``import repro`` loads no
submodule, and reading a name imports only the module defining it
(see :mod:`repro.lazy`).
"""

from repro.lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "BusFabric": ".core",
    "ConfigError": ".core",
    "EmulationError": ".core",
    "EmulationEngine": ".core",
    "EngineResult": ".core",
    "EmulationFlow": ".core",
    "FlowReport": ".core",
    "Monitor": ".core",
    "EmulationPlatform": ".core",
    "build_platform": ".core",
    "PlatformConfig": ".core",
    "TGSpec": ".core",
    "TRSpec": ".core",
    "Processor": ".core",
    "ResultCache": ".experiments",
    "ScenarioResult": ".experiments",
    "SweepRunner": ".experiments",
    "ScenarioSpec": ".experiments",
    "Sweep": ".experiments",
    "Network": ".noc",
    "Packet": ".noc",
    "Switch": ".noc",
    "SwitchConfig": ".noc",
    "SwitchingMode": ".noc",
    "Topology": ".noc",
    "paper_topology": ".noc",
    "BurstTraffic": ".traffic",
    "PoissonTraffic": ".traffic",
    "Trace": ".traffic",
    "TraceTraffic": ".traffic",
    "UniformTraffic": ".traffic",
})
__all__.append("__version__")
