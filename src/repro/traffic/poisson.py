"""Poisson traffic ("other models possible (i.e. Poisson...)", Slide 9).

Packet arrivals form a Poisson process, discretised to the cycle grid:
inter-arrival gaps are exponential variates rounded to whole cycles (at
least one).  The offered load is ``length * rate`` flits per cycle.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.traffic.base import LENGTH, LOAD, DestinationChooser, TrafficModel
from repro.util import Param


class PoissonTraffic(TrafficModel):
    """Poisson packet arrivals.

    Parameters
    ----------
    rate:
        Mean arrivals per cycle (packets/cycle), in (0, 1].
    length:
        Packet length in flits.
    destination:
        Destination chooser consulted per packet.
    seed:
        LFSR seed.
    """

    __rebuilt__ = ("rate", "length", "destination")

    PARAMS = {
        "rate": Param(float, 0, 1, lo_open=True, label="rate"),
        "length": LENGTH,
        "load": LOAD,
    }
    FORMS = ("__init__", "for_load")

    def __init__(
        self,
        rate: float,
        length: int,
        destination: DestinationChooser,
        seed: int = 1,
    ) -> None:
        super().__init__(seed)
        self.check(rate=rate, length=length)
        self.rate = rate
        self.length = length
        self.destination = destination
        self._next_emission: Optional[int] = None

    def reset(self, seed: Optional[int] = None) -> None:
        super().reset(seed)
        self._next_emission = None

    def _draw_gap(self) -> int:
        return max(1, round(self.rng.expovariate(self.rate)))

    def poll(self, now: int) -> Optional[Tuple[int, int, Optional[int]]]:
        if self._next_emission is None:
            # First arrival: a full exponential gap from cycle 0, so the
            # process has no deterministic burst at start-up.
            self._next_emission = now + self._draw_gap() - 1
        if now < self._next_emission:
            return None
        self._next_emission = now + self._draw_gap()
        dst = self.destination.next_destination(self.rng)
        return (self.length, dst, None)

    def next_emission_cycle(self, now: int) -> Optional[int]:
        # Until the first poll draws the initial gap there is no
        # schedule yet; demand a poll at ``now``.
        if self._next_emission is None:
            return now
        return max(now, self._next_emission)

    def expected_load(self) -> Optional[float]:
        return min(1.0, self.rate * self.length)

    @classmethod
    def for_load(
        cls,
        load: float,
        length: int,
        destination: DestinationChooser,
        seed: int = 1,
    ) -> "PoissonTraffic":
        """Poisson process whose offered load is ``load`` flits/cycle."""
        cls.check(load=load, length=length)
        return cls(load / length, length, destination, seed)
