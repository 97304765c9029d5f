"""Receptor base class.

A receptor hooks the receive side of a node's network interface: the
reassembly buffer calls :meth:`TrafficReceptor.on_packet` for every
completed packet.  Subclasses add the statistics machinery of the two
receptor families the paper describes.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.noc.flit import Flit, Packet
from repro.noc.ni import ReassemblyBuffer


class TrafficReceptor:
    """Common packet accounting of all receptor devices.

    Tracks the counters every receptor shares: packets/flits received,
    the first and last reception cycle (whose difference is the "total
    running time" the stochastic receptor reports), and exposes the
    ``attach`` plumbing to a reassembly buffer.
    """

    #: Not checkpointed (see :mod:`repro.checkpoint.walker`): identity
    #: and the platform's count hook.  Subclass analyzers are walked.
    __rebuilt__ = ("node", "name", "on_count")

    def __init__(self, node: int, name: str = "") -> None:
        self.node = node
        self.name = name or f"tr{node}"
        self.packets_received = 0
        self.flits_received = 0
        self.first_cycle: Optional[int] = None
        self.last_cycle: Optional[int] = None
        self.enabled = True
        # Platform hook: packet-count delta (positive on reception,
        # negative on reset) keeping aggregate progress counters O(1).
        self.on_count: Optional[Callable[[int], None]] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, rx: ReassemblyBuffer) -> None:
        """Register this receptor as the packet sink of ``rx``."""
        if rx.on_packet is not None:
            raise RuntimeError(
                f"reassembly buffer of node {rx.node} already has a"
                f" receptor attached"
            )
        rx.on_packet = self.on_packet

    # ------------------------------------------------------------------
    # Packet sink
    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet, now: int, flits: List[Flit]) -> None:
        if not self.enabled:
            return
        self.packets_received += 1
        self.flits_received += packet.length
        if self.on_count is not None:
            self.on_count(1)
        if self.first_cycle is None:
            self.first_cycle = now
        self.last_cycle = now
        self._record(packet, now, flits)

    def _record(self, packet: Packet, now: int, flits: List[Flit]) -> None:
        """Subclass hook for per-packet statistics."""

    # ------------------------------------------------------------------
    # Shared statistics
    # ------------------------------------------------------------------
    @property
    def running_time(self) -> int:
        """Cycles between the first and last received packet.

        This is the "total running time" register of the stochastic
        receptor (Slide 11); zero until two packets have arrived.
        """
        if self.first_cycle is None or self.last_cycle is None:
            return 0
        return self.last_cycle - self.first_cycle

    def throughput(self) -> float:
        """Accepted flits per cycle over the receptor's active window."""
        if self.running_time == 0:
            return 0.0
        return self.flits_received / self.running_time

    def reset(self) -> None:
        if self.on_count is not None and self.packets_received:
            self.on_count(-self.packets_received)
        self.packets_received = 0
        self.flits_received = 0
        self.first_cycle = None
        self.last_cycle = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(node={self.node},"
            f" packets={self.packets_received})"
        )
