"""The uniform stochastic traffic model.

Slide 9: "Uniform Model; Parameters: Length of packets. Interval
between packets."  The generator emits one packet of a fixed (or
uniformly randomised) flit length every fixed (or uniformly randomised)
number of cycles.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Tuple

from repro.traffic.base import (
    LENGTH,
    LOAD,
    DestinationChooser,
    TrafficModel,
    interval_for_load,
)
from repro.util import Param


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

    PARAMS = {
        "length": replace(LENGTH, span=True),
        "interval": Param(int, 1, span=True, label="inter-packet interval"),
        "load": LOAD,
    }
    FORMS = ("__init__", "for_load")

    def __init__(
        self,
        length,
        interval,
        destination: DestinationChooser,
        seed: int = 1,
    ) -> None:
        super().__init__(seed)
        self.check(length=length, interval=interval)
        self._length_range = self._as_range(length)
        self._interval_range = self._as_range(interval)
        self.destination = destination
        self._next_emission = 0

    @staticmethod
    def _as_range(value) -> Tuple[int, int]:
        if isinstance(value, int):
            return (value, value)
        lo, hi = value
        return (int(lo), int(hi))

    @classmethod
    def for_load(
        cls,
        load: float,
        length,
        destination: DestinationChooser,
        seed: int = 1,
    ) -> "UniformTraffic":
        """Emission every :func:`interval_for_load` cycles of the
        longest packet, so the offered load never exceeds ``load``."""
        cls.check(load=load, length=length)
        longest = length if isinstance(length, int) else length[1]
        return cls(
            length, interval_for_load(longest, load), destination, seed
        )

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
