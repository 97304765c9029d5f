"""Traffic-model and destination-chooser interfaces.

A :class:`TrafficModel` is polled once per cycle by its traffic
generator and decides when to emit a packet and how long it should be.
Destination selection is factored into :class:`DestinationChooser`
objects so the same stochastic process can drive fixed-pair flows (the
paper's experimental setup), uniformly random destinations or hotspot
patterns.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

from repro.traffic.rng import LfsrRandom


def interval_for_load(length: int, load: float) -> int:
    """Inter-packet interval achieving a target injection load.

    A generator emitting ``length``-flit packets every ``interval``
    cycles occupies its injection link for ``length / interval`` of the
    time; the paper's setup drives each TG at 45% of the maximum
    bandwidth (Slide 19), i.e. ``interval_for_load(length, 0.45)``.
    The interval is rounded up so the realised load never exceeds the
    target.
    """
    if length < 1:
        raise ValueError(f"packet length must be >= 1, got {length}")
    if not 0.0 < load <= 1.0:
        raise ValueError(f"load must be in (0, 1], got {load}")
    return max(length, math.ceil(length / load))


class DestinationChooser:
    """Picks the destination node of each generated packet."""

    def next_destination(self, rng: LfsrRandom) -> int:
        raise NotImplementedError

    def destinations(self) -> Tuple[int, ...]:
        """All destinations this chooser can emit (for route validation)."""
        raise NotImplementedError


class FixedDestination(DestinationChooser):
    """Always the same destination (one TG feeding one TR)."""

    def __init__(self, dst: int) -> None:
        if dst < 0:
            raise ValueError("destination must be a node index >= 0")
        self.dst = dst

    def next_destination(self, rng: LfsrRandom) -> int:
        return self.dst

    def destinations(self) -> Tuple[int, ...]:
        return (self.dst,)


class UniformRandomDestination(DestinationChooser):
    """Uniformly random destination among a candidate set."""

    def __init__(self, candidates: Sequence[int]) -> None:
        if not candidates:
            raise ValueError("candidate destination set is empty")
        self.candidates = tuple(candidates)

    def next_destination(self, rng: LfsrRandom) -> int:
        return rng.choice(self.candidates)

    def destinations(self) -> Tuple[int, ...]:
        return self.candidates


class HotspotDestination(DestinationChooser):
    """One hotspot destination with elevated probability, rest uniform."""

    def __init__(
        self,
        hotspot: int,
        others: Sequence[int],
        hotspot_fraction: float = 0.5,
    ) -> None:
        if not 0.0 < hotspot_fraction <= 1.0:
            raise ValueError(
                f"hotspot fraction must be in (0, 1], got"
                f" {hotspot_fraction}"
            )
        if not others and hotspot_fraction < 1.0:
            raise ValueError(
                "non-hotspot probability mass but no other destinations"
            )
        self.hotspot = hotspot
        self.others = tuple(others)
        self.hotspot_fraction = hotspot_fraction

    def next_destination(self, rng: LfsrRandom) -> int:
        if rng.bernoulli(self.hotspot_fraction) or not self.others:
            return self.hotspot
        return rng.choice(self.others)

    def destinations(self) -> Tuple[int, ...]:
        return (self.hotspot,) + self.others


class TrafficModel:
    """Base class of all traffic processes.

    Subclasses implement :meth:`poll`, returning either ``None`` (no
    packet this cycle) or a ``(length, dst, burst_id)`` emission.  The
    wrapping :class:`~repro.traffic.generator.TrafficGenerator` turns
    emissions into :class:`~repro.noc.flit.Packet` objects stamped with
    the current cycle.
    """

    #: Not checkpointed as values (see :mod:`repro.checkpoint.walker`):
    #: the LFSR, whose register checkpoint code saves, and its seed.
    #: Subclasses add their construction parameters.
    __rebuilt__ = ("rng", "_seed")

    def __init__(self, seed: int = 1) -> None:
        self.rng = LfsrRandom(seed)
        self._seed = seed

    def reset(self, seed: Optional[int] = None) -> None:
        """Rewind the process (optionally with a new seed)."""
        if seed is not None:
            self._seed = seed
        self.rng.reseed(self._seed)

    def poll(self, now: int) -> Optional[Tuple[int, int, Optional[int]]]:
        """Emission for cycle ``now``: ``(length, dst, burst_id)`` or None."""
        raise NotImplementedError

    def next_emission_cycle(self, now: int) -> Optional[int]:
        """Earliest cycle ``>= now`` at which :meth:`poll` may emit.

        ``None`` means the process will never emit again (an exhausted
        trace).  The contract powering idle fast-forward: for every
        cycle ``t`` with ``now <= t < next_emission_cycle(now)``,
        ``poll(t)`` would return ``None`` *without side effects* (no
        RNG draws, no state changes), so a quiescent platform may jump
        straight to the returned cycle.  The base implementation
        conservatively returns ``now`` (poll every cycle), which
        disables fast-forward for models that don't override it.
        """
        return now

    def expected_load(self) -> Optional[float]:
        """Long-run injected flits per cycle, when analytically known.

        Returns ``None`` for models without a closed form (e.g. trace
        replay); the monitor then reports measured load only.
        """
        return None
