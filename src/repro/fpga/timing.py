"""Timing model: the achievable platform clock.

Slide 18: "Platform speed: 50 MHz.  The speed has been chosen regarding
the possibilities of our Virtex 2 Pro FPGA."  The critical path of the
emulation platform runs through a switch: route lookup, arbitration
(grows with the input count), crossbar traversal and the buffer write,
plus bus address decode growing with the device population.  The
constants below are fitted so the paper's default platform (radix-4
switches, depth-4 buffers, 9 devices) lands in the 50 MHz speed grade.
"""

from __future__ import annotations

import math

#: Standard speed grades the platform clock is quantised down to (MHz).
CLOCK_GRID_MHZ = (25, 33, 40, 50, 66, 75, 100)

_BASE_NS = 11.0  # register-to-register logic floor
_ARBITER_NS_PER_LOG_INPUT = 1.8
_BUFFER_NS_PER_DEPTH = 0.6
_DECODE_NS_PER_LOG_DEVICE = 0.4


def critical_path_ns(
    max_switch_inputs: int, buffer_depth: int, n_devices: int
) -> float:
    """Estimated critical path of the platform in nanoseconds."""
    if max_switch_inputs < 1 or buffer_depth < 1 or n_devices < 1:
        raise ValueError("timing model parameters must be >= 1")
    return (
        _BASE_NS
        + _ARBITER_NS_PER_LOG_INPUT
        * math.ceil(math.log2(max(2, max_switch_inputs)))
        + _BUFFER_NS_PER_DEPTH * buffer_depth
        + _DECODE_NS_PER_LOG_DEVICE
        * math.ceil(math.log2(max(2, n_devices)))
    )


def achievable_clock_hz(
    max_switch_inputs: int,
    buffer_depth: int,
    n_devices: int,
) -> float:
    """Platform clock: critical-path f_max quantised down to the grid.

    Returns the highest :data:`CLOCK_GRID_MHZ` frequency whose period
    covers the critical path; falls back to the raw f_max when even the
    lowest grid entry is too fast (deep buffers).
    """
    path = critical_path_ns(max_switch_inputs, buffer_depth, n_devices)
    f_max_mhz = 1000.0 / path
    feasible = [f for f in CLOCK_GRID_MHZ if f <= f_max_mhz]
    if not feasible:
        return f_max_mhz * 1e6
    return max(feasible) * 1e6


def platform_clock_hz(config) -> float:
    """Achievable clock of a :class:`~repro.core.config.PlatformConfig`."""
    topology = config.resolve_topology()
    max_inputs = max(
        topology.n_inputs(s) for s in range(topology.n_switches)
    )
    n_devices = len(config.tgs) + len(config.trs) + 1  # + control
    return achievable_clock_hz(
        max_inputs, config.buffer_depth, n_devices
    )
