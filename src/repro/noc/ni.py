"""Network interfaces.

Slide 10 of the paper: the traffic-generator structure ends in "a
network interface [that] converts a traffic pattern in flits for NoC"
and "can be adapted for any type of NoC".  The TX side here segments
packets into flits and injects them under credit-based flow control; the
RX side reassembles flits into packets and hands completed packets to
whatever receptor device is attached.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from repro.noc.flit import Flit, Packet
from repro.noc.link import Link


class NetworkInterface:
    """Transmit-side NI: packet segmentation plus credit-controlled injection.

    One instance sits between a traffic generator and the input port of
    its local switch.  ``offer`` queues a packet; :meth:`inject` pushes
    at most one flit per cycle onto the injection link when a
    downstream buffer slot (credit) is available.  It is the one
    out-of-line form of the rule the event kernel's injection phase
    inlines; parking an NI is only ever done by that kernel.
    """

    __slots__ = (
        "node",
        "name",
        "_flits",
        "_link",
        "_credits",
        "_notify_offer",
        "_wake",
        "_clock",
        "_active",
        "_parked",
        "_park_cycle",
        "_drain_level",
        "_on_drain",
        "offered_packets",
        "injected_flits",
        "injected_packets",
        "_stall_cycles",
        "peak_queue",
    )
    #: Not checkpointed as values (see :mod:`repro.checkpoint.walker`):
    #: identity and network wiring; the queued flits go through the
    #: checkpoint's packet registry; the drain watch is re-armed by the
    #: restored generator.
    __rebuilt__ = (
        "node", "name", "_flits", "_link", "_notify_offer", "_wake",
        "_clock", "_drain_level", "_on_drain",
    )

    def __init__(self, node: int) -> None:
        self.node = node
        self.name = f"ni{node}"
        self._flits: Deque[Flit] = deque()
        self._link: Optional[Link] = None
        self._credits = 0
        # Event-driven scheduling hooks (set by the network): the
        # offer hook is called with each offered packet before it is
        # queued, so the network can reject a destination outside the
        # fabric, bump its in-flight counter and mark this NI active;
        # the wake hook re-activates a parked NI.
        # ``_clock`` reads the network cycle for bulk settlement.
        self._notify_offer: Optional[Callable[[Packet], None]] = None
        self._wake: Optional[Callable[[], None]] = None
        self._clock: Optional[Callable[[], int]] = None
        self._active = False
        # Parking state: a credit-starved NI (queued flits, zero
        # credits) leaves the network's active set; only the credit
        # return of its injection link (or a fresh offer, or a reset)
        # can change its outcome, and per-cycle stall statistics for
        # the parked stretch settle in bulk on wake-up.
        self._parked = False
        self._park_cycle = 0
        # Source-queue drain watch: the traffic generator arms it to
        # learn when the queue drops below its backpressure limit (see
        # TrafficGenerator), without polling every cycle.
        self._drain_level: Optional[int] = None
        self._on_drain: Optional[Callable[[int], None]] = None
        # Statistics.
        self.offered_packets = 0
        self.injected_flits = 0
        self.injected_packets = 0
        self._stall_cycles = 0
        self.peak_queue = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def connect(self, link: Link, credits: int) -> None:
        if self._link is not None:
            raise RuntimeError(f"{self.name} is already connected")
        self._link = link
        self._credits = credits

    # ------------------------------------------------------------------
    # Generator-facing interface
    # ------------------------------------------------------------------
    def offer(self, packet: Packet) -> None:
        """Queue ``packet`` for injection (segmented immediately)."""
        if self._notify_offer is not None:
            self._notify_offer(packet)
        self.offered_packets += 1
        self._flits.extend(packet.flits())
        if len(self._flits) > self.peak_queue:
            self.peak_queue = len(self._flits)
        if self._parked:
            # Offers land before this cycle's inject phase, which will
            # run again once the network re-activates the NI below —
            # settlement therefore stops at the previous cycle.
            self._settle(self._clock() - 1)
            self._parked = False

    @property
    def pending_flits(self) -> int:
        """Flits queued but not yet on the wire (source queue depth)."""
        return len(self._flits)

    @property
    def idle(self) -> bool:
        return not self._flits

    # ------------------------------------------------------------------
    # Network-facing interface
    # ------------------------------------------------------------------
    def _credit_unpark(self) -> None:
        """Wake from parked: the starved-for credit arrived.

        Credits arrive in the network's first phase, before this
        cycle's inject phase: settle through the previous cycle and
        rejoin the active set in time to inject this cycle.
        """
        self._settle(self._clock() - 1)
        self._parked = False
        if self._wake is not None:
            self._wake()

    def inject(self, now: int) -> bool:
        """Try to put one flit on the wire; return True on success."""
        if self._parked:
            # Self-healing for the scan-everything reference path: a
            # parked NI injected by it settles first, then this call
            # ticks the current cycle itself.
            self._settle(now - 1)
            self._parked = False
        if not self._flits:
            return False
        if self._link is None:
            raise RuntimeError(f"{self.name} injects but is not connected")
        if self._credits <= 0:
            self._stall_cycles += 1
            self._flits[0].stall_cycles += 1
            return False
        flit = self._flits.popleft()
        if flit.is_head:
            flit.packet.wire_entry_cycle = now
        self._link.send(flit, now)
        self._credits -= 1
        self.injected_flits += 1
        if flit.is_tail:
            self.injected_packets += 1
        if self._drain_level is not None and len(self._flits) == (
            self._drain_level - 1
        ):
            # The source queue just dropped below the generator's
            # backpressure limit: fire the one-shot drain watch.
            callback = self._on_drain
            self._drain_level = None
            self._on_drain = None
            callback(now)
        return True

    # ------------------------------------------------------------------
    # Parking (driven by the network's event-driven step)
    # ------------------------------------------------------------------
    def _park(self, now: int) -> None:
        """Leave the active set after a credit-starved inject at ``now``.

        While parked the head flit and the stall counter would tick
        identically every cycle (credits only arrive through the
        network's credit wheel, flits only leave through
        :meth:`inject`), so the whole stretch settles in one step on
        wake-up.
        """
        self._parked = True
        self._park_cycle = now

    def _settle(self, until: int) -> None:
        """Account stalls of parked cycles ``park_cycle+1..until``."""
        elapsed = until - self._park_cycle
        if elapsed <= 0:
            return
        self._park_cycle = until
        self._stall_cycles += elapsed
        self._flits[0].stall_cycles += elapsed

    @property
    def stall_cycles(self) -> int:
        """Inject attempts stalled on credits (settled through the
        last emulated cycle, including any still-parked stretch)."""
        if self._parked:
            pending = self._clock() - 1 - self._park_cycle
            if pending > 0:
                return self._stall_cycles + pending
        return self._stall_cycles

    def stats_snapshot(self) -> tuple:
        """``(injected_flits, injected_packets, stall_cycles)`` settled
        through the last emulated cycle (windowed-telemetry reading)."""
        return (
            self.injected_flits,
            self.injected_packets,
            self.stall_cycles,
        )

    def watch_drain(
        self, level: int, callback: Callable[[int], None]
    ) -> None:
        """Arm a one-shot callback for the queue dropping below
        ``level`` flits; fired with the cycle of the crossing pop."""
        self._drain_level = level
        self._on_drain = callback

    def purge_pids(self, pids, now: int) -> int:
        """Drop every queued flit of the packets in ``pids`` (fault
        abort); return the number of flits removed.

        A parked stretch settles first so the stall accounting of the
        old head closes before the head changes; the purge then fires
        the generator's drain watch if it crosses the backpressure
        level, and leaves the NI unparked — if it is still
        credit-starved, the next inject attempt re-parks it with
        identical per-cycle accounting.
        """
        flits = self._flits
        if not flits:
            return 0
        keep = [f for f in flits if f.packet.pid not in pids]
        purged = len(flits) - len(keep)
        if not purged:
            return 0
        if self._parked:
            self._settle(now - 1)
            self._parked = False
        flits.clear()
        flits.extend(keep)
        level = self._drain_level
        if level is not None and len(flits) < level:
            callback = self._on_drain
            self._drain_level = None
            self._on_drain = None
            callback(now)
        if keep and self._wake is not None:
            self._wake()
        return purged

    def reset_stats(self) -> None:
        if self._parked:
            # Per-flit stall counters survive a statistics reset:
            # settle the parked stretch into them, zero the NI
            # counter, and keep accumulating into the fresh window.
            self._settle(self._clock() - 1)
        self.offered_packets = 0
        self.injected_flits = 0
        self.injected_packets = 0
        self._stall_cycles = 0
        self.peak_queue = len(self._flits)


class ReassemblyBuffer:
    """Receive-side NI: collects flits back into packets.

    Completed packets are handed to ``on_packet(packet, now, flits)``.
    Wormhole switching delivers each packet's flits contiguously and in
    order on the ejection link, but the buffer tolerates interleaving
    (it keys partial packets by packet id) so it also works under
    store-and-forward or multi-link ejection.
    """

    __slots__ = (
        "node",
        "name",
        "on_packet",
        "_partial",
        "_last_pid",
        "_last_flits",
        "received_flits",
        "received_packets",
        "misrouted_flits",
        "aborted_packets",
    )
    #: Not checkpointed as values: identity, the receptor hook, the
    #: partial packets (mapped through the packet registry) and the
    #: one-packet lookup cache over them.
    __rebuilt__ = (
        "node", "name", "on_packet", "_partial", "_last_pid",
        "_last_flits",
    )

    def __init__(self, node: int) -> None:
        self.node = node
        self.name = f"rx{node}"
        #: Called with ``(packet, now, flits)`` per completed packet;
        #: the network sets it.
        self.on_packet: Optional[
            Callable[[Packet, int, List[Flit]], None]
        ] = None
        self._partial: Dict[int, List[Flit]] = {}
        # One-packet cache over ``_partial``: wormhole switching
        # delivers each packet's flits contiguously, so the list the
        # previous flit landed in is almost always the one the next
        # flit wants — skipping a dict lookup per ejected flit.
        self._last_pid: Optional[int] = None
        self._last_flits: Optional[List[Flit]] = None
        # Statistics.
        self.received_flits = 0
        self.received_packets = 0
        self.misrouted_flits = 0
        # Partial packets discarded by fault injection, cumulative
        # across the run (not reset with the stats window).
        self.aborted_packets = 0

    def receive(self, flit: Flit, now: int) -> Optional[Packet]:
        """Accept one flit; return the packet if this flit completed it."""
        self.received_flits += 1
        if flit.dst != self.node:
            self.misrouted_flits += 1
            raise RuntimeError(
                f"{self.name} received flit for node {flit.dst}: the"
                f" routing tables are inconsistent"
            )
        pid = flit.packet.pid
        if pid == self._last_pid:
            flits = self._last_flits
        else:
            flits = self._partial.get(pid)
            if flits is None:
                flits = self._partial[pid] = []
            self._last_pid = pid
            self._last_flits = flits
        flits.append(flit)
        if len(flits) < flit.packet.length:
            return None
        del self._partial[pid]
        self._last_pid = None
        self._last_flits = None
        self.received_packets += 1
        packet = flit.packet
        if self.on_packet is not None:
            self.on_packet(packet, now, flits)
        return packet

    def abort_packets(self, pids) -> List[int]:
        """Discard the partial reassembly state of the packets in
        ``pids`` (fault abort); return the pids actually discarded.

        A wormhole packet whose tail died on a link would otherwise
        hold its partial flit list forever and distort the in-flight
        accounting.
        """
        dead = [pid for pid in self._partial if pid in pids]
        for pid in dead:
            del self._partial[pid]
            if pid == self._last_pid:
                self._last_pid = None
                self._last_flits = None
        self.aborted_packets += len(dead)
        return dead

    @property
    def partial_packets(self) -> int:
        """Packets with some but not all flits received (in flight)."""
        return len(self._partial)

    def stats_snapshot(self) -> tuple:
        """``(received_flits, received_packets)`` — the ejection-side
        counters the windowed telemetry differences."""
        return (self.received_flits, self.received_packets)

    def reset_stats(self) -> None:
        self.received_flits = 0
        self.received_packets = 0
        self.misrouted_flits = 0
