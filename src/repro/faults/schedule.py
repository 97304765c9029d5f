"""Declarative fault schedules.

A :class:`FaultSchedule` is the fault-side analogue of
:class:`~repro.experiments.spec.ScenarioSpec`: a frozen, validated,
canonically serialisable list of timed fault events.  It carries no
behaviour — :class:`~repro.faults.injector.FaultInjector` applies the
events to a live platform — so schedules can live inside scenario
specs, travel to sweep worker processes as plain dicts, and contribute
to content-addressed cache keys.

Event kinds
-----------
``link_down(cycle, a, b)``
    The directed inter-switch link ``a -> b`` dies at ``cycle``:
    in-flight flits on it are dropped, packets that lose flits are
    aborted everywhere, and (with ``repair=True``) routing is rebuilt
    online around the dead link.
``link_up(cycle, a, b)``
    A previously-downed link comes back; credits re-baseline and (with
    repair) routing is rebuilt to use it again.
``FaultEvent("flaky", cycle, a=, b=, until=, drop_p=, seed=)``
    During ``[cycle, until)`` every flit arriving over ``a -> b`` is
    dropped with probability ``drop_p``; drops are content-addressed
    (packet id, flit sequence) through
    :func:`~repro.traffic.rng.derive_stream_seed`, so they are
    reproducible and identical across kernels and worker processes.
``switch_down(cycle, switch)``
    Every link touching ``switch`` dies at once; generators hosted on
    it are disabled and traffic destined to its nodes is aborted.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from repro.core.errors import ConfigError
from repro.util import (
    Param,
    canonical_json_bytes,
    check_declared,
    declared,
    from_fields,
)

#: Bump when the canonical dict layout changes incompatibly.
FAULT_SCHEMA = 1

_KINDS = ("link_down", "link_up", "flaky", "switch_down")

#: Fields an event of each kind must set; everything else must be None.
_REQUIRED = {
    "link_down": ("a", "b"),
    "link_up": ("a", "b"),
    "flaky": ("a", "b", "until", "drop_p", "seed"),
    "switch_down": ("switch",),
}
_OPTIONAL_FIELDS = ("a", "b", "switch", "until", "drop_p", "seed")
#: A switch id, a cycle or a seed, where the event's kind takes one.
_COUNT = Param(int, 0, optional=True)


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault event (see the module docstring for kinds)."""

    kind: str = declared(Param(str, choices=_KINDS))
    cycle: int = declared(Param(int, 0))
    a: Optional[int] = declared(_COUNT, None)
    b: Optional[int] = declared(_COUNT, None)
    switch: Optional[int] = declared(_COUNT, None)
    until: Optional[int] = declared(_COUNT, None)
    drop_p: Optional[float] = declared(Param(float, 0, 1, optional=True), None)
    seed: Optional[int] = declared(_COUNT, None)

    def __post_init__(self) -> None:
        check_declared(self, "fault ")
        required = _REQUIRED[self.kind]
        for name in _OPTIONAL_FIELDS:
            value = getattr(self, name)
            if name in required:
                if value is None:
                    raise ConfigError(
                        f"{self.kind} event needs {name!r}"
                    )
            elif value is not None:
                raise ConfigError(
                    f"{self.kind} event does not take {name!r}"
                )
        if self.a is not None and self.a == self.b:
            raise ConfigError(
                f"fault link endpoints must be distinct switch ids,"
                f" got {self.a} -> {self.b}"
            )
        if self.until is not None and self.until <= self.cycle:
            raise ConfigError(
                f"flaky window must end after it starts:"
                f" until={self.until} <= cycle={self.cycle}"
            )

    def sort_key(self) -> tuple:
        """Canonical event order: time first, then content (an unset
        field sorts before every set one)."""
        values = [getattr(self, name) for name in _OPTIONAL_FIELDS]
        content = [-1 if value is None else value for value in values]
        return (self.cycle, self.kind, *content)

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "cycle": self.cycle}
        for name in _OPTIONAL_FIELDS:
            value = getattr(self, name)
            if value is not None:
                d[name] = value
        return d

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultEvent":
        return from_fields(cls, data, "fault event")


def link_down(cycle: int, a: int, b: int) -> FaultEvent:
    return FaultEvent("link_down", cycle, a=a, b=b)


def link_up(cycle: int, a: int, b: int) -> FaultEvent:
    return FaultEvent("link_up", cycle, a=a, b=b)


def switch_down(cycle: int, switch: int) -> FaultEvent:
    return FaultEvent("switch_down", cycle, switch=switch)


@dataclass(frozen=True)
class FaultSchedule:
    """A validated, canonically ordered set of fault events.

    ``repair=True`` (the default) rebuilds routing online after every
    topology-changing event; ``repair=False`` leaves the tables alone
    so the run measures raw degradation — typically ending in the
    engine's :class:`~repro.core.engine.DegradedResult` escalation.
    """

    events: Tuple[FaultEvent, ...] = ()
    repair: bool = declared(Param(bool), True)

    def __post_init__(self) -> None:
        events = tuple(
            e if isinstance(e, FaultEvent) else FaultEvent.from_dict(e)
            for e in self.events
        )
        events = tuple(sorted(events, key=FaultEvent.sort_key))
        object.__setattr__(self, "events", events)
        check_declared(self)
        # Per directed link, down and up must alternate starting down;
        # a switch may die at most once and its links must not be
        # faulted afterwards.
        link_state: dict = {}
        down_switches: dict = {}
        for e in events:
            if e.a is not None:
                for s in (e.a, e.b):
                    if s in down_switches:
                        raise ConfigError(
                            f"{e.kind} at cycle {e.cycle} touches"
                            f" switch {s}, already dead since cycle"
                            f" {down_switches[s]}"
                        )
            if e.kind == "link_down":
                if link_state.get((e.a, e.b)):
                    raise ConfigError(
                        f"link_down {e.a}->{e.b} at cycle {e.cycle}:"
                        f" the link is already down"
                    )
                link_state[(e.a, e.b)] = True
            elif e.kind == "link_up":
                if not link_state.get((e.a, e.b)):
                    raise ConfigError(
                        f"link_up {e.a}->{e.b} at cycle {e.cycle}"
                        f" without a preceding link_down"
                    )
                link_state[(e.a, e.b)] = False
            elif e.kind == "switch_down":
                if e.switch in down_switches:
                    raise ConfigError(
                        f"switch_down {e.switch} at cycle {e.cycle}:"
                        f" the switch is already down"
                    )
                down_switches[e.switch] = e.cycle

    def __bool__(self) -> bool:
        return bool(self.events)

    def check_targets(self, links, n_switches: int) -> None:
        """Raise :class:`ConfigError` unless every link named is in
        ``links`` and every switch in ``range(n_switches)``."""
        for e in self.events:
            if e.a is not None and (e.a, e.b) not in links:
                raise ConfigError(
                    f"fault schedule names link {e.a}->{e.b}, which"
                    f" does not exist in the topology"
                )
            if e.switch is not None and not 0 <= e.switch < n_switches:
                raise ConfigError(
                    f"fault schedule names switch {e.switch}, out of"
                    f" range [0, {n_switches})"
                )

    def to_dict(self) -> dict:
        return {
            "repair": self.repair,
            "events": [e.to_dict() for e in self.events],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultSchedule":
        return from_fields(cls, data, "fault schedule")

    @classmethod
    def of(
        cls, *events: FaultEvent, repair: bool = True
    ) -> "FaultSchedule":
        """Convenience constructor from loose events."""
        return cls(events=tuple(events), repair=repair)

    @property
    def key(self) -> str:
        """Content-addressed identity (16 hex chars), like a spec key."""
        payload = canonical_json_bytes(
            {"schema": FAULT_SCHEMA, "schedule": self.to_dict()}
        )
        return hashlib.sha256(payload).hexdigest()[:16]

    def first_cycle(self) -> Optional[int]:
        return self.events[0].cycle if self.events else None
