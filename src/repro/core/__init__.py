"""The emulation framework (the paper's contribution).

``repro.core`` assembles the substrates into the HW/SW emulation
platform of Genko et al.: a network of switches plus traffic generators
and receptors (HW side), configured and orchestrated by a processor
over a memory-mapped bus fabric (SW side), with a monitor rendering
the final report and a six-step emulation flow that only repeats the
expensive hardware steps when hardware parameters actually change.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "AddressError": ".bus",
    "BusFabric": ".bus",
    "Device": ".bus",
    "PlatformConfig": ".config",
    "TGSpec": ".config",
    "TRSpec": ".config",
    "generic_platform_config": ".config",
    "paper_platform_config": ".config",
    "check_topology_spec": ".config",
    "resolve_topology_spec": ".config",
    "ControlDevice": ".control",
    "TGDevice": ".devices",
    "TRDevice": ".devices",
    "EmulationEngine": ".engine",
    "EngineResult": ".engine",
    "ConfigError": ".errors",
    "EmulationError": ".errors",
    "EmulationFlow": ".flow",
    "FlowReport": ".flow",
    "Monitor": ".monitor",
    "EmulationPlatform": ".platform",
    "build_platform": ".platform",
    "Processor": ".processor",
    "Register": ".registers",
    "RegisterBank": ".registers",
})
