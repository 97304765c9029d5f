"""Flits and packets.

The emulated NoC is packet-switched: a network interface segments each
packet into *flits* (flow-control digits), the atomic unit moved by
switches in one cycle.  A packet of ``length`` flits is encoded as one
HEAD flit, ``length - 2`` BODY flits and one TAIL flit; a single-flit
packet is a HEAD_TAIL flit.  The HEAD flit carries the routing
information (destination), mirroring the header flit of the hardware
platform.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import List, Optional


class FlitType(enum.Enum):
    """Position of a flit within its packet."""

    HEAD = "head"
    BODY = "body"
    TAIL = "tail"
    HEAD_TAIL = "head_tail"

    @property
    def is_head(self) -> bool:
        """True for flits that open a packet (carry routing info)."""
        return self in (FlitType.HEAD, FlitType.HEAD_TAIL)

    @property
    def is_tail(self) -> bool:
        """True for flits that close a packet (release wormhole channels)."""
        return self in (FlitType.TAIL, FlitType.HEAD_TAIL)


#: Pid source for packets built outside a platform (unit tests, the
#: TLM/RTL baseline schedules).  A platform numbers its own packets
#: (:attr:`EmulationPlatform.next_pid`), so its traffic never depends
#: on what else the process built.
_packet_ids = itertools.count()


def next_packet_id() -> int:
    """The next pid of the out-of-platform allocator."""
    return next(_packet_ids)


@dataclass
class Packet:
    """A packet as produced by a traffic generator.

    Parameters
    ----------
    src, dst:
        Node indices of the generating and receiving network interface.
    length:
        Packet length in flits (>= 1).
    injection_cycle:
        Cycle at which the generator handed the packet to its network
        interface.  Latency is measured from this point (the latency
        analyzer of the paper measures generation-to-reception time).
    wire_entry_cycle:
        Cycle the HEAD flit actually left the network interface (set
        by the NI).  ``wire_entry_cycle - injection_cycle`` is the
        source-queueing component of the latency; the analyzer splits
        total latency into queueing + network time with it.
    burst_id:
        Identifier of the burst this packet belongs to for burst/trace
        traffic; ``None`` for traffic without burst structure.
    """

    src: int
    dst: int
    length: int
    injection_cycle: int = 0
    wire_entry_cycle: Optional[int] = None
    burst_id: Optional[int] = None
    pid: int = field(default_factory=next_packet_id)

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError(f"packet length must be >= 1, got {self.length}")
        if self.src < 0 or self.dst < 0:
            raise ValueError("src and dst must be non-negative node indices")

    def flits(self) -> List["Flit"]:
        """Segment the packet into flits, in transmission order.

        The one place the simulator makes flits: each is six stores on
        a bare object in one loop, then the head and tail flags are
        set.  Returns an eager list: the NI extends its source queue
        with it in one C-level call, which beats draining a generator
        frame per flit on the offer hot path.
        """
        new = object.__new__
        dst = self.dst
        flits = []
        append = flits.append
        for seq in range(self.length):
            flit = new(Flit)
            flit.packet = self
            flit.seq = seq
            flit.stall_cycles = 0
            flit.is_head = False
            flit.is_tail = False
            flit.dst = dst
            append(flit)
        flits[0].is_head = True
        flits[-1].is_tail = True
        return flits


class Flit:
    """One flow-control digit of a packet.

    A flit knows its packet, so the receiving network interface can
    reassemble packets and the statistics devices can attribute latency
    and congestion to the right flow.  ``stall_cycles`` accumulates the
    number of cycles the flit sat at the head of a buffer without being
    able to advance; the congestion counter aggregates it.

    Flits are the unit object of the simulator's inner loop, so a flit
    stores six fields: ``packet``, ``seq``, ``stall_cycles`` and the
    per-hop constants ``is_head``, ``is_tail`` and ``dst``, read on
    every switch traversal.  ``kind`` and ``src`` are derived (from the
    flags and from ``packet.src``); no hot path reads them.
    :meth:`Packet.flits` builds flits without calling ``__init__``.
    """

    __slots__ = ("packet", "seq", "stall_cycles", "is_head", "is_tail", "dst")

    def __init__(self, kind: FlitType, packet: Packet, seq: int) -> None:
        self.packet = packet
        self.seq = seq
        self.stall_cycles = 0
        self.is_head = kind.is_head
        self.is_tail = kind.is_tail
        self.dst = packet.dst

    @property
    def kind(self) -> FlitType:
        """Position of the flit within its packet."""
        if self.is_head:
            return FlitType.HEAD_TAIL if self.is_tail else FlitType.HEAD
        return FlitType.TAIL if self.is_tail else FlitType.BODY

    @property
    def src(self) -> int:
        """Node index of the generating network interface."""
        return self.packet.src

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Flit({self.kind.value}, pid={self.packet.pid}, seq={self.seq},"
            f" {self.src}->{self.dst})"
        )
