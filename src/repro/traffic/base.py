"""Traffic-model and destination-chooser interfaces.

A :class:`TrafficModel` is polled once per cycle by its traffic
generator and decides when to emit a packet and how long it should be.
Destination selection is factored into :class:`DestinationChooser`
objects so the same stochastic process can drive fixed-pair flows (the
paper's experimental setup) or uniformly random destinations.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.traffic.rng import LfsrRandom
from repro.util import Param


#: Params several models share.  ``length`` and ``load`` default to
#: the scenario's own, which declares them with these same ranges.
LENGTH = Param(
    int, 1, default=lambda length, load: length, label="packet length"
)
LOAD = Param(float, 0, 1, lo_open=True, default=lambda length, load: load)
GAP = Param(int, 0)
PACKETS_PER_BURST = Param(int, 1, default=8, label="packets per burst")


def interval_for_load(length: int, load: float) -> int:
    """Inter-packet interval achieving a target injection load.

    A generator emitting ``length``-flit packets every ``interval``
    cycles occupies its injection link for ``length / interval`` of the
    time; the paper's setup drives each TG at 45% of the maximum
    bandwidth (Slide 19), i.e. ``interval_for_load(length, 0.45)``.
    The interval is rounded up so the realised load never exceeds the
    target.
    """
    _check({"length": LENGTH, "load": LOAD}, length=length, load=load)
    return max(length, math.ceil(length / load))


def _check(params: Dict[str, Param], **values: Any) -> None:
    """Raise ``ValueError`` for the first value its param rejects."""
    for name, value in values.items():
        param = params[name]
        problem = param.problem(value)
        if problem is not None:
            raise ValueError(f"{param.label or name} {problem}")


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

    #: The model's params, declared once; every check and default of a
    #: param (constructors, scenario specs, TG params) reads this.
    PARAMS: Dict[str, Param] = {}
    #: Its two constructors, an explicit form then the default form;
    #: each takes params, ``destination`` (from ``dst``) and ``seed``.
    FORMS: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._forms = []
        for name in cls.FORMS:
            code = getattr(cls, name).__code__
            args = code.co_varnames[1:code.co_argcount]  # past self/cls
            cls._forms.append((
                cls if name == "__init__" else getattr(cls, name),
                [arg for arg in args if arg != "seed"],
            ))

    @classmethod
    def check(cls, **values: Any) -> None:
        """Raise ``ValueError`` for a value outside its declared param."""
        _check(cls.PARAMS, **values)

    @classmethod
    def check_form(cls, factory: Any, kwargs: Dict[str, Any]) -> None:
        """Raise ``ValueError`` or ``ArithmeticError`` unless the form
        ``factory`` takes ``kwargs``, values that each pass their
        declaration: the value a form derives from several (an
        interval, rate or gap from the load) can still fail.  Builds
        the model, which takes microseconds for a stochastic one."""
        factory(**dict(kwargs, destination=FixedDestination(0)))

    @classmethod
    def form_for(cls, params: Any) -> Tuple[Any, List[str]]:
        """The constructor ``params`` select, and its arguments: the
        explicit form if they name a param only it takes."""
        (factory, args), default = cls._forms
        if any(arg in params and arg not in default[1] for arg in args):
            return factory, args
        return default

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
