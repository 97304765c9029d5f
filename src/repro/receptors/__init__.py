"""Traffic receptors.

Slide 11 of the paper: "Stochastic receptors: Histograms, which show an
image of the received traffic. Total running time.  Trace driven
receptors: Latency analyzer. Congestion counter."  A receptor is the
device attached to the receive side of a network interface; it consumes
reassembled packets and maintains the statistics the monitor reads out.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "TrafficReceptor": ".base",
    "Histogram": ".histogram",
    "StochasticReceptor": ".stochastic",
    "TraceDrivenReceptor": ".tracedriven",
})
