"""The congestion counter (trace-driven receptor, Slide 11).

Two complementary views of congestion are provided:

* :class:`CongestionCounter` — the receptor-side device: every flit
  accumulates the number of cycles it spent blocked (lost arbitration,
  no credits, channel held by another wormhole) on its way through the
  network; the counter aggregates these per received packet.
* :func:`network_congestion_rate` — the network-side rate used by the
  paper's Slide 21 figure: the fraction of switch-traversal attempts
  that were blocked, ``blocked / (blocked + forwarded)``.  It is 0 in
  an idle network and approaches 1 as the loaded links saturate.

Both views are *settlement-safe* under the event-driven kernel's
component parking (see ``repro.noc.network``): a fully blocked switch
or credit-starved NI leaves the per-cycle loop, and the stall ticks
its flits and counters would have accumulated are settled in bulk on
wake-up.  ``Flit.stall_cycles`` is therefore exact by the time a
packet completes (a parked flit cannot be delivered without waking
first), so :meth:`CongestionCounter.record` never sees a stale count;
``Switch.blocked_flit_cycles`` and friends are exposed as
settle-on-read properties, so :func:`network_congestion_rate` is exact
at any observation point, even while components are still parked.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro.noc.flit import Flit, Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.noc.network import Network


class CongestionCounter:
    """Accumulates per-packet blocking observed at a receptor."""

    #: Every field is checkpointed (see :mod:`repro.checkpoint.walker`).
    __rebuilt__ = ()

    def __init__(self) -> None:
        self.packets = 0
        self.flits = 0
        self.total_stall_cycles = 0
        self.max_packet_stall = 0
        self.congested_packets = 0  # packets with any stalled flit

    def record(self, packet: Packet, flits: List[Flit]) -> int:
        """Record one completed packet; return its total stall cycles."""
        stall = 0
        for flit in flits:
            stall += flit.stall_cycles
        self.packets += 1
        self.flits += len(flits)
        self.total_stall_cycles += stall
        if stall > self.max_packet_stall:
            self.max_packet_stall = stall
        if stall:
            self.congested_packets += 1
        return stall

    @property
    def mean_stall_per_packet(self) -> float:
        """Average blocked cycles accumulated per packet."""
        return self.total_stall_cycles / self.packets if self.packets else 0.0

    @property
    def mean_stall_per_flit(self) -> float:
        """Average blocked cycles accumulated per flit."""
        return self.total_stall_cycles / self.flits if self.flits else 0.0

    @property
    def congested_fraction(self) -> float:
        """Fraction of packets that experienced any blocking."""
        return self.congested_packets / self.packets if self.packets else 0.0

    def merge(self, other: "CongestionCounter") -> None:
        self.packets += other.packets
        self.flits += other.flits
        self.total_stall_cycles += other.total_stall_cycles
        self.max_packet_stall = max(
            self.max_packet_stall, other.max_packet_stall
        )
        self.congested_packets += other.congested_packets

    def reset(self) -> None:
        self.packets = 0
        self.flits = 0
        self.total_stall_cycles = 0
        self.max_packet_stall = 0
        self.congested_packets = 0


def network_congestion_rate(network: "Network") -> float:
    """Fraction of switch-traversal attempts that were blocked.

    Aggregated over every switch since its statistics were last reset:
    ``blocked_flit_cycles / (blocked_flit_cycles + flits_forwarded)``.
    This is the "congestion rate" axis of the paper's Slide 21 figure
    (and the 90% operating point Slide 22's latency maximum refers to
    is the load of the hot links driving this rate up).
    """
    blocked = sum(sw.blocked_flit_cycles for sw in network.switches)
    forwarded = sum(sw.flits_forwarded for sw in network.switches)
    attempts = blocked + forwarded
    return blocked / attempts if attempts else 0.0
