"""Traffic generation substrate.

Implements the traffic-generator family of the paper (Slides 9-10):
stochastic models — **uniform** (packet length + inter-packet interval),
**burst** (2-state Markov chain) and **Poisson** ("other models
possible") — plus **trace-driven** generators replaying recorded
traces.  Each generator is parameterised through a bank of registers
("a bench of registers for traffic parameterization [and] random
initialization") and feeds a network interface.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "DestinationChooser": ".base",
    "FixedDestination": ".base",
    "TrafficModel": ".base",
    "UniformRandomDestination": ".base",
    "interval_for_load": ".base",
    "BurstTraffic": ".burst",
    "TrafficGenerator": ".generator",
    "OnOffTraffic": ".onoff",
    "PoissonTraffic": ".poisson",
    "Lfsr32": ".rng",
    "LfsrRandom": ".rng",
    "Trace": ".trace",
    "TraceRecord": ".trace",
    "TraceTraffic": ".trace",
    "load_trace": ".trace",
    "save_trace": ".trace",
    "synthetic_burst_trace": ".trace",
    "synthetic_mpeg_trace": ".trace",
    "UniformTraffic": ".uniform",
})
