"""The speed-comparison harness (Slide 18 / Table 2).

Measures the emulated-cycles-per-second of the three engine classes in
this package on the *same* platform and workload:

* the cycle-level emulation engine (``repro.core``) — our stand-in for
  running the platform, fastest;
* the SystemC-like TLM engine — cycle-accurate with channel
  transactions, slower;
* the event-driven RTL engine — per-signal events and delta cycles,
  slowest by far;

and renders them next to the paper's reported speeds (emulation
50 Mcycles/s, SystemC 20 Kcycles/s, Verilog 3.2 Kcycles/s).  The claim
under reproduction is the *ordering and the orders-of-magnitude gaps*,
not the absolute numbers, which depend on the host.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.engine import EmulationEngine
from repro.core.platform import build_platform
from repro.experiments.spec import ScenarioSpec
from repro.noc.flit import Packet
from repro.noc.routing import TableRouting, paper_routing
from repro.noc.topology import paper_flow_pairs, paper_topology
from repro.stats.runtime import PAPER_SPEEDS, SpeedReport

#: Modelled speed of the emulated platform itself (its 50 MHz clock).
MODELLED_EMULATION_SPEED = PAPER_SPEEDS["Our Emulation"]


def build_packet_schedule(
    packets_per_flow: int, length: int = 8, interval: int = 18
) -> Dict[int, List[Packet]]:
    """A deterministic uniform-traffic schedule on the paper flows.

    ``interval=18`` with ``length=8`` gives the 45% injection load of
    the paper's setup.  The same schedule feeds every engine so the
    speed comparison runs identical traffic.
    """
    schedule: Dict[int, List[Packet]] = {}
    for src, dst in paper_flow_pairs():
        schedule[src] = [
            Packet(
                src=src,
                dst=dst,
                length=length,
                injection_cycle=k * interval,
            )
            for k in range(packets_per_flow)
        ]
    return schedule


@dataclass
class EngineMeasurement:
    """Measured speed of one engine on the shared workload."""

    name: str
    cycles: int
    wall_seconds: float
    packets_received: int

    @property
    def cycles_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return float("inf")
        return self.cycles / self.wall_seconds


def _measure_emulation(packets_per_flow: int) -> EngineMeasurement:
    config = ScenarioSpec(packets=packets_per_flow).to_platform_config()
    platform = build_platform(config)
    engine = EmulationEngine(platform)
    result = engine.run()
    return EngineMeasurement(
        name="repro cycle-level engine",
        cycles=result.cycles,
        wall_seconds=result.wall_seconds,
        packets_received=result.packets_received,
    )


def _measure_tlm(packets_per_flow: int) -> EngineMeasurement:
    from repro.baselines.tlm import TlmPlatformSim

    topo = paper_topology()
    routing = paper_routing(topo, "overlap")
    assert isinstance(routing, TableRouting)
    sim = TlmPlatformSim(
        topo, routing, build_packet_schedule(packets_per_flow)
    )
    started = time.perf_counter()  # repro: allow[wall-clock] benchmark harness measures host speed by design
    cycles = sim.run_until_drained()
    wall = time.perf_counter() - started  # repro: allow[wall-clock] benchmark harness measures host speed by design
    return EngineMeasurement(
        name="repro TLM engine (SystemC-like)",
        cycles=cycles,
        wall_seconds=wall,
        packets_received=sim.packets_received,
    )


def _measure_rtl(packets_per_flow: int) -> EngineMeasurement:
    from repro.baselines.rtl import RtlPlatformSim

    topo = paper_topology()
    routing = paper_routing(topo, "overlap")
    assert isinstance(routing, TableRouting)
    sim = RtlPlatformSim(
        topo, routing, build_packet_schedule(packets_per_flow)
    )
    started = time.perf_counter()  # repro: allow[wall-clock] benchmark harness measures host speed by design
    cycles = sim.run_until_drained()
    wall = time.perf_counter() - started  # repro: allow[wall-clock] benchmark harness measures host speed by design
    return EngineMeasurement(
        name="repro RTL engine (event-driven)",
        cycles=cycles,
        wall_seconds=wall,
        packets_received=sim.packets_received,
    )


def measure_engine_speeds(
    emulation_packets: int = 2000,
    tlm_packets: int = 500,
    rtl_packets: int = 60,
) -> List[EngineMeasurement]:
    """Run all three engines; scale workloads to their speed class.

    Each engine runs the same *kind* of workload (the paper uniform
    setup); the slower engines get proportionally fewer packets so the
    harness completes in seconds, exactly as the paper never ran 1000
    Mpackets through ModelSim either — speeds extrapolate linearly in
    cycles.
    """
    return [
        _measure_emulation(emulation_packets),
        _measure_tlm(tlm_packets),
        _measure_rtl(rtl_packets),
    ]


def speed_report(
    measurements: Optional[Sequence[EngineMeasurement]] = None,
    cycles_per_packet: Optional[float] = None,
    include_paper_rows: bool = True,
) -> SpeedReport:
    """Build the Slide 18 table from measurements.

    ``cycles_per_packet`` defaults to the calibration of the fastest
    measured engine (total cycles / packets received), so the "time for
    N Mpackets" columns of every row describe the same workload.
    """
    if measurements is None:
        measurements = measure_engine_speeds()
    if cycles_per_packet is None:
        first = measurements[0]
        if first.packets_received == 0:
            raise ValueError(
                "cannot calibrate cycles/packet: no packets received"
            )
        cycles_per_packet = first.cycles / first.packets_received
    report = SpeedReport(cycles_per_packet)
    if include_paper_rows:
        report.add_paper_modes()
    report.add_mode(
        "Modelled emulation @50MHz", MODELLED_EMULATION_SPEED
    )
    for m in measurements:
        report.add_mode(m.name, m.cycles_per_sec, measured=True)
    return report
