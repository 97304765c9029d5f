"""Inter-switch links.

A link is a unidirectional pipeline carrying one flit per cycle from an
upstream switch output port to a downstream input buffer; credits
flow back the other way with the same delay, scheduled by the network
in its credit wheel.  Link *load* (fraction of cycles carrying a flit)
is the quantity the paper's experimental setup fixes at 90% on two
inter-switch links (Slide 19), so every link keeps a utilisation
counter that the monitor can read out.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.noc.flit import Flit


class Link:
    """A point-to-point flit pipeline with configurable latency.

    Parameters
    ----------
    delay:
        Number of cycles a flit spends in flight (>= 1).  The default of
        one cycle matches a registered inter-switch wire on the FPGA.
    name:
        Human-readable identifier used in monitor reports, e.g.
        ``"sw2:out1->sw4:in0"``.
    """

    __slots__ = (
        "delay",
        "name",
        "wheel",
        "wheel_size",
        "sink",
        "dst",
        "rx",
        "down",
        "flits_dropped",
        "flits_carried",
        "stats_since",
        "_last_send_cycle",
    )
    #: Not checkpointed (see :mod:`repro.checkpoint.walker`): topology
    #: config and the delivery wiring the network re-installs.
    __rebuilt__ = (
        "delay", "name", "wheel", "wheel_size", "sink", "dst", "rx",
    )

    def __init__(self, delay: int = 1, name: str = "") -> None:
        if delay < 1:
            raise ValueError(f"link delay must be >= 1, got {delay}")
        self.delay = delay
        self.name = name
        # Delivery-wheel wiring (set by the network): flights live in
        # the network's arrival-cycle ring buffer (``wheel``, a list of
        # ``wheel_size`` slots) as ``(link, flit)`` entries — the
        # per-hop hot paths append them directly — and the delivery
        # phase hands arrivals to ``sink``.  The flits in flight on
        # this link are its entries in that wheel (``wire_count``, read
        # by a wheel walk, never counted on the hop).
        self.wheel: Optional[List[List[Tuple["Link", Flit]]]] = None
        self.wheel_size = 0
        self.sink: Optional[Callable[[Flit, int], None]] = None
        # Fused delivery endpoints (set by the network).  ``dst`` is
        # the (switch, input port, buffer) tuple of a link feeding a
        # switch input — the delivery phase pushes into it directly,
        # skipping the ``sink`` callback frame; ``rx`` is the
        # reassembly buffer of an ejection link.
        self.dst: Optional[tuple] = None
        self.rx: Optional[object] = None
        # Fault state: a downed link accepts no flits.  The hot paths
        # never consult this flag — fault application zeroes the
        # upstream credits and repairs routing so no route reaches a
        # dead link; ``send`` keeps a guard against protocol bugs.
        # ``flits_dropped`` counts flits the injector purged from this
        # wire, cumulative across the run (not a stats-window counter).
        self.down = False
        self.flits_dropped = 0
        # Statistics.
        self.flits_carried = 0
        self.stats_since = 0  # cycle the stats window opened at
        self._last_send_cycle: Optional[int] = None

    # ------------------------------------------------------------------
    # Downstream flit path
    # ------------------------------------------------------------------
    def send(self, flit: Flit, now: int) -> None:
        """Inject a flit at cycle ``now``; it arrives at ``now + delay``.

        The out-of-line form of the send the switch hop and the event
        kernel's injection phase inline.  A link not wired into a
        network gets a private wheel of its own on its first send.
        """
        if self.down:
            raise RuntimeError(
                f"link {self.name or id(self)} is down and cannot carry"
                f" flits (fault injected before cycle {now})"
            )
        if self._last_send_cycle == now:
            raise RuntimeError(
                f"link {self.name or id(self)} accepted two flits in cycle"
                f" {now}; links carry one flit per cycle"
            )
        self._last_send_cycle = now
        wheel = self.wheel
        if wheel is None:
            self.wheel_size = self.delay + 1
            wheel = self.wheel = [[] for _ in range(self.wheel_size)]
        wheel[(now + self.delay) % self.wheel_size].append((self, flit))
        self.flits_carried += 1

    @property
    def wire_count(self) -> int:
        """Number of flits currently in flight: this link's entries in
        its delivery wheel (one walk of the wheel per read)."""
        if self.wheel is None:
            return 0
        return sum(
            1 for slot in self.wheel for wired, _flit in slot
            if wired is self
        )

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def busy_cycles(self) -> int:
        """Cycles in which the link accepted a flit.

        A link carries at most one flit per cycle, so this is exactly
        ``flits_carried`` — aliased rather than counted separately to
        keep one increment off the per-hop hot path.
        """
        return self.flits_carried

    def utilization(self, elapsed_cycles: int) -> float:
        """Fraction of ``elapsed_cycles`` in which the link carried a flit."""
        if elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self.flits_carried / elapsed_cycles)

    def stats_snapshot(self) -> Tuple[int, int]:
        """``(flits_carried, flits_dropped)`` — the per-link counters
        the windowed telemetry differences at window boundaries."""
        return (self.flits_carried, self.flits_dropped)

    def reset_stats(self, now: int = 0) -> None:
        """Zero the counters and open a new stats window at ``now``."""
        self.flits_carried = 0
        self.stats_since = now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Link({self.name!r}, delay={self.delay})"
