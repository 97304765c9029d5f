"""Bounded flit FIFOs.

Each switch input port owns one ``FlitBuffer``.  Its depth is the "size
of buffers" switch parameter of the paper (Slide 6).  The buffer keeps
occupancy statistics so the FPGA resource model and the congestion
statistics can be driven from the same object.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterator, Optional

from repro.noc.flit import Flit


class BufferFullError(RuntimeError):
    """Raised on a push into a full buffer (a flow-control violation)."""


class FlitBuffer:
    """A bounded FIFO of flits with occupancy accounting.

    Credit-based flow control guarantees a producer never pushes into a
    full buffer; a push into a full buffer therefore raises instead of
    silently dropping, because it indicates a protocol bug.

    ``track_packets`` keeps a per-packet flit count updated on every
    push/pop, giving store-and-forward switches an O(1) answer to "is
    the head packet fully buffered?" instead of rescanning the FIFO
    every cycle while the packet accumulates (with input-granular
    parking that question is asked once per arrival wake-up, not per
    cycle).

    The buffer has no push or pop method: the push rule is written in
    ``Switch.receive`` (and inlined in the network's fused delivery
    phase), the pop rule in the hop paths of ``switch.traverse_all``.
    A push writes ``_fifo``, ``_pid_counts``, ``total_pushes`` and
    ``peak_occupancy``; a pop writes only ``_fifo`` and
    ``_pid_counts``.  ``total_pops`` is not counted: it is
    ``total_pushes - len(fifo)`` plus ``_pops_base``, the base
    :meth:`reset_stats`, :meth:`clear` and the fault purge adjust (a
    purge is not a pop).  The ``_fifo`` deque's identity is
    stable for the buffer's lifetime; the switch's per-input scan
    tuples and the links' fused delivery endpoints cache it.
    """

    __slots__ = (
        "capacity",
        "name",
        "_fifo",
        "_pid_counts",
        "total_pushes",
        "_pops_base",
        "peak_occupancy",
        "occupancy_cycles",
        "full_cycles",
        "_sampled_cycles",
    )

    def __init__(
        self, capacity: int, name: str = "", track_packets: bool = False
    ) -> None:
        if capacity < 1:
            raise ValueError(f"buffer capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.name = name
        self._fifo: Deque[Flit] = deque()
        self._pid_counts: Optional[Dict[int, int]] = (
            {} if track_packets else None
        )
        # Statistics.
        self.total_pushes = 0
        self._pops_base = 0
        self.peak_occupancy = 0
        self.occupancy_cycles = 0  # integral of occupancy over cycles
        self.full_cycles = 0  # cycles spent completely full
        self._sampled_cycles = 0

    # ------------------------------------------------------------------
    # FIFO interface
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._fifo)

    def __iter__(self) -> Iterator[Flit]:
        return iter(self._fifo)

    @property
    def is_empty(self) -> bool:
        return not self._fifo

    @property
    def is_full(self) -> bool:
        return len(self._fifo) >= self.capacity

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self._fifo)

    def head(self) -> Optional[Flit]:
        """Head flit or ``None`` when empty."""
        return self._fifo[0] if self._fifo else None

    def clear(self) -> None:
        self._pops_base -= len(self._fifo)  # dropped, not popped
        self._fifo.clear()
        if self._pid_counts is not None:
            self._pid_counts.clear()

    def packet_flit_count(self, pid: int) -> int:
        """Buffered flits belonging to packet ``pid``.

        O(1) when the buffer tracks packets, otherwise a FIFO scan.
        """
        if self._pid_counts is not None:
            return self._pid_counts.get(pid, 0)
        return sum(1 for f in self._fifo if f.packet.pid == pid)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def total_pops(self) -> int:
        """Flits popped since the last :meth:`reset_stats`."""
        return self.total_pushes - len(self._fifo) + self._pops_base

    @total_pops.setter
    def total_pops(self, value: int) -> None:
        self._pops_base = value - self.total_pushes + len(self._fifo)

    def sample(self) -> None:
        """Record one cycle's occupancy (called once per cycle)."""
        self._sampled_cycles += 1
        self.occupancy_cycles += len(self._fifo)
        if self.is_full:
            self.full_cycles += 1

    @property
    def mean_occupancy(self) -> float:
        """Average number of buffered flits over the sampled cycles."""
        if self._sampled_cycles == 0:
            return 0.0
        return self.occupancy_cycles / self._sampled_cycles

    @property
    def full_fraction(self) -> float:
        """Fraction of sampled cycles the buffer was completely full."""
        if self._sampled_cycles == 0:
            return 0.0
        return self.full_cycles / self._sampled_cycles

    def reset_stats(self) -> None:
        self.total_pushes = 0
        self._pops_base = len(self._fifo)
        self.peak_occupancy = len(self._fifo)
        self.occupancy_cycles = 0
        self.full_cycles = 0
        self._sampled_cycles = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FlitBuffer({self.name!r}, {len(self._fifo)}/{self.capacity})"
        )
