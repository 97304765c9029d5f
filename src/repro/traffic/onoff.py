"""Deterministic on/off traffic.

A deterministic companion to the Markov burst model: exactly
``packets_per_burst`` back-to-back packets, then exactly ``gap`` idle
cycles, repeated.  The trace-driven figures of the paper sweep
"packets/burst" on the x-axis; this model produces that sweep without
stochastic variance, and the synthetic trace producers reuse it.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.traffic.base import DestinationChooser, TrafficModel


class OnOffTraffic(TrafficModel):
    """Fixed-shape bursts: N packets on, ``gap`` cycles off.

    Parameters
    ----------
    packets_per_burst:
        Packets emitted back-to-back in each ON period.
    gap:
        Idle cycles between bursts (>= 0).
    length:
        Flits per packet.
    destination:
        Destination chooser, consulted once per burst.
    """

    __rebuilt__ = ("packets_per_burst", "gap", "length", "destination")

    def __init__(
        self,
        packets_per_burst: int,
        gap: int,
        length: int,
        destination: DestinationChooser,
        seed: int = 1,
    ) -> None:
        super().__init__(seed)
        if packets_per_burst < 1:
            raise ValueError(
                f"packets per burst must be >= 1, got {packets_per_burst}"
            )
        if gap < 0:
            raise ValueError(f"gap must be >= 0 cycles, got {gap}")
        if length < 1:
            raise ValueError(f"packet length must be >= 1, got {length}")
        self.packets_per_burst = packets_per_burst
        self.gap = gap
        self.length = length
        self.destination = destination
        self._next_emission = 0
        self._in_burst = 0
        self._burst_id = 0
        self._burst_dst: Optional[int] = None

    def reset(self, seed: Optional[int] = None) -> None:
        super().reset(seed)
        self._next_emission = 0
        self._in_burst = 0
        self._burst_id = 0
        self._burst_dst = None

    def poll(self, now: int) -> Optional[Tuple[int, int, Optional[int]]]:
        if now < self._next_emission:
            return None
        if self._in_burst == 0:
            self._burst_dst = self.destination.next_destination(self.rng)
        dst = self._burst_dst
        assert dst is not None
        burst_id = self._burst_id
        self._in_burst += 1
        if self._in_burst >= self.packets_per_burst:
            self._in_burst = 0
            self._burst_id += 1
            self._next_emission = now + self.length + self.gap
        else:
            self._next_emission = now + self.length
        return (self.length, dst, burst_id)

    def next_emission_cycle(self, now: int) -> Optional[int]:
        return max(now, self._next_emission)

    def expected_load(self) -> Optional[float]:
        on = self.packets_per_burst * self.length
        return on / (on + self.gap) if (on + self.gap) else 1.0

    @classmethod
    def for_load(
        cls,
        load: float,
        packets_per_burst: int,
        length: int,
        destination: DestinationChooser,
        seed: int = 1,
    ) -> "OnOffTraffic":
        """Choose the gap so the duty cycle equals ``load``."""
        if not 0.0 < load <= 1.0:
            raise ValueError(f"load must be in (0, 1], got {load}")
        on = packets_per_burst * length
        gap = round(on * (1.0 - load) / load)
        return cls(packets_per_burst, gap, length, destination, seed)
