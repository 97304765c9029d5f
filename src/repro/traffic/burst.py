"""The burst (2-state Markov) stochastic traffic model.

Slide 9: "Burst Model; Parameters: Transition probabilities in a
2-state Markov chain."  The chain alternates between an OFF state
(silence) and an ON state (back-to-back packets).  Time advances in
*slots* of one packet-serialisation time; at every slot boundary the
chain transitions with the configured probabilities:

* ``p_on``  — probability of leaving OFF for ON (OFF -> ON),
* ``p_off`` — probability of leaving ON for OFF (ON -> OFF).

The stationary ON probability is ``p_on / (p_on + p_off)`` and the mean
burst length is ``1 / p_off`` packets, which gives the model a
closed-form offered load used by the monitor and by tests.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.traffic.base import LENGTH, LOAD, DestinationChooser, TrafficModel
from repro.util import Param

_OFF, _ON = 0, 1

#: A per-slot transition probability.
_PROBABILITY = Param(float, 0, 1, lo_open=True)


class BurstTraffic(TrafficModel):
    """Markov-modulated on/off bursts of back-to-back packets.

    Parameters
    ----------
    p_on:
        OFF -> ON transition probability per slot, in (0, 1].
    p_off:
        ON -> OFF transition probability per slot, in (0, 1].
    length:
        Packet length in flits (every packet of a burst has this
        length; the slot duration equals the serialisation time).
    destination:
        Destination chooser, consulted once per *burst* so a whole
        burst lands on one receptor (trace-like locality), matching the
        per-burst statistics of the paper's figures.
    seed:
        LFSR seed.
    """

    __rebuilt__ = ("p_on", "p_off", "length", "destination")

    PARAMS = {
        "p_on": _PROBABILITY,
        "p_off": _PROBABILITY,
        "length": LENGTH,
        "load": LOAD,
        "mean_burst_packets": Param(
            float, 1, default=8.0, label="mean burst length"
        ),
    }
    FORMS = ("__init__", "for_load")

    def __init__(
        self,
        p_on: float,
        p_off: float,
        length: int,
        destination: DestinationChooser,
        seed: int = 1,
    ) -> None:
        super().__init__(seed)
        self.check(p_on=p_on, p_off=p_off, length=length)
        self.p_on = p_on
        self.p_off = p_off
        self.length = length
        self.destination = destination
        self._state = _OFF
        self._next_slot = 0
        self._burst_id = -1
        self._burst_dst: Optional[int] = None

    def reset(self, seed: Optional[int] = None) -> None:
        super().reset(seed)
        self._state = _OFF
        self._next_slot = 0
        self._burst_id = -1
        self._burst_dst = None

    def poll(self, now: int) -> Optional[Tuple[int, int, Optional[int]]]:
        if now < self._next_slot:
            return None
        self._next_slot = now + self.length  # one slot per packet time
        if self._state == _OFF:
            if self.rng.bernoulli(self.p_on):
                self._state = _ON
                self._burst_id += 1
                self._burst_dst = self.destination.next_destination(
                    self.rng
                )
            else:
                return None
        else:
            if self.rng.bernoulli(self.p_off):
                self._state = _OFF
                return None
        assert self._burst_dst is not None
        return (self.length, self._burst_dst, self._burst_id)

    def next_emission_cycle(self, now: int) -> Optional[int]:
        # The chain must be polled at every slot boundary (each poll
        # draws the transition), but never between slots.
        return max(now, self._next_slot)

    @property
    def stationary_on(self) -> float:
        """Long-run fraction of slots spent in the ON state."""
        return self.p_on / (self.p_on + self.p_off)

    def expected_load(self) -> Optional[float]:
        # One packet of `length` flits per `length`-cycle slot while ON.
        return self.stationary_on

    @classmethod
    def for_load(
        cls,
        load: float,
        mean_burst_packets: float,
        length: int,
        destination: DestinationChooser,
        seed: int = 1,
    ) -> "BurstTraffic":
        """Construct a chain with a target load and mean burst length.

        Solves ``p_off = 1 / mean_burst_packets`` and
        ``p_on = load * p_off / (1 - load)``; the paper's 45% TG load
        with a chosen packets-per-burst maps directly onto this.
        """
        cls.check(load=load, mean_burst_packets=mean_burst_packets)
        p_off = 1.0 / mean_burst_packets
        if load * p_off > 1.0 - load:  # p_on > 1, or ON for ever
            raise ValueError(
                f"load {load} with {mean_burst_packets} packets/burst"
                f" needs p_on > 1; increase the burst length"
            )
        p_on = load * p_off / (1.0 - load)
        return cls(p_on, p_off, length, destination, seed)
