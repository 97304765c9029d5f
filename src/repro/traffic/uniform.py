"""The uniform stochastic traffic model.

Slide 9: "Uniform Model; Parameters: Length of packets. Interval
between packets."  The generator emits one packet of a fixed (or
uniformly randomised) flit length every fixed (or uniformly randomised)
number of cycles.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.traffic.base import DestinationChooser, TrafficModel


class UniformTraffic(TrafficModel):
    """Periodic packet emission with optional uniform jitter.

    Parameters
    ----------
    length:
        Packet length in flits, either an int or an inclusive
        ``(lo, hi)`` range sampled uniformly per packet.
    interval:
        Cycles between consecutive emissions, int or ``(lo, hi)`` range.
        The first packet is emitted at the first poll.
    destination:
        Destination chooser consulted per packet.
    seed:
        LFSR seed (the TG's random-initialization register).
    """

    __rebuilt__ = ("_length_range", "_interval_range", "destination")

    def __init__(
        self,
        length,
        interval,
        destination: DestinationChooser,
        seed: int = 1,
    ) -> None:
        super().__init__(seed)
        self._length_range = self._as_range(length, "length")
        self._interval_range = self._as_range(interval, "interval")
        if self._length_range[0] < 1:
            raise ValueError("packet length must be >= 1 flit")
        if self._interval_range[0] < 1:
            raise ValueError("inter-packet interval must be >= 1 cycle")
        self.destination = destination
        self._next_emission = 0

    @staticmethod
    def _as_range(value, what: str) -> Tuple[int, int]:
        if isinstance(value, int):
            return (value, value)
        lo, hi = value
        if lo > hi:
            raise ValueError(f"empty {what} range ({lo}, {hi})")
        return (int(lo), int(hi))

    def reset(self, seed: Optional[int] = None) -> None:
        super().reset(seed)
        self._next_emission = 0

    def poll(self, now: int) -> Optional[Tuple[int, int, Optional[int]]]:
        if now < self._next_emission:
            return None
        lo, hi = self._length_range
        length = lo if lo == hi else self.rng.uniform_int(lo, hi)
        lo_i, hi_i = self._interval_range
        interval = lo_i if lo_i == hi_i else self.rng.uniform_int(lo_i, hi_i)
        self._next_emission = now + interval
        dst = self.destination.next_destination(self.rng)
        return (length, dst, None)

    def next_emission_cycle(self, now: int) -> Optional[int]:
        return max(now, self._next_emission)

    def expected_load(self) -> Optional[float]:
        mean_length = sum(self._length_range) / 2.0
        mean_interval = sum(self._interval_range) / 2.0
        return mean_length / mean_interval
