"""Degradation accounting for faulted runs.

A :class:`FaultReport` is the honest record the engine attaches to
:class:`~repro.core.engine.EngineResult` when a run carried a fault
schedule: what was dropped (per link and per packet), which reroutes
happened and what they cost, and how throughput moved across the
windows a fault cuts the run into.  All counters except the wall-clock
repair latencies are deterministic, so they can feed scenario metrics
and sweep records without breaking bit-identical reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class FaultEventRecord:
    """One applied fault event and what it cost."""

    cycle: int
    kind: str
    detail: str
    dropped_flits: int = 0
    dropped_packets: int = 0
    repaired: bool = False
    #: Host-side wall time spent rebuilding/vetting/recompiling the
    #: routing tables (the "repair latency" of the software-only
    #: reconfiguration story); not deterministic, excluded from
    #: metrics.
    repair_wall_seconds: float = 0.0
    #: Emulated cycles from the event until the first packet delivery
    #: after it — the fabric-level recovery latency.  None if nothing
    #: was delivered after the event.
    recovery_cycles: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "cycle": self.cycle,
            "kind": self.kind,
            "detail": self.detail,
            "dropped_flits": self.dropped_flits,
            "dropped_packets": self.dropped_packets,
            "repaired": self.repaired,
            "repair_wall_seconds": self.repair_wall_seconds,
            "recovery_cycles": self.recovery_cycles,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEventRecord":
        """Inverse of :meth:`to_dict`."""
        return cls(**data)


@dataclass
class FaultWindow:
    """Delivered traffic between two consecutive fault boundaries."""

    label: str
    start: int
    end: int
    packets_received: int

    @property
    def cycles(self) -> int:
        return self.end - self.start

    @property
    def throughput(self) -> float:
        """Packets delivered per cycle inside the window."""
        if self.end <= self.start:
            return 0.0
        return self.packets_received / (self.end - self.start)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "start": self.start,
            "end": self.end,
            "packets_received": self.packets_received,
            "throughput": self.throughput,
        }


@dataclass
class FaultReport:
    """Aggregated degradation record of one faulted run."""

    # Run state, assigned by the injector and by restore.  Each field
    # takes a default_factory: a dataclass leaves a plain-default
    # init=False field out of the instance dict, which the checkpoint
    # walker records.
    dropped_flits: int = field(init=False, default_factory=int)
    dropped_packets: int = field(init=False, default_factory=int)
    per_link_drops: Dict[str, int] = field(init=False, default_factory=dict)
    events: List[FaultEventRecord] = field(init=False, default_factory=list)
    windows: List[FaultWindow] = field(init=False, default_factory=list)
    degraded: bool = field(init=False, default_factory=bool)
    degraded_reason: Optional[str] = field(
        init=False, default_factory=lambda: None
    )

    #: Record lists checkpoint code serializes itself (see
    #: :mod:`repro.checkpoint.walker`).
    __rebuilt__ = ("events", "windows")

    @property
    def reroutes(self) -> List[FaultEventRecord]:
        """The events that triggered an online routing repair."""
        return [e for e in self.events if e.repaired]

    def to_dict(self) -> dict:
        return {
            "dropped_flits": self.dropped_flits,
            "dropped_packets": self.dropped_packets,
            "per_link_drops": dict(self.per_link_drops),
            "events": [e.to_dict() for e in self.events],
            "windows": [w.to_dict() for w in self.windows],
            "degraded": self.degraded,
            "degraded_reason": self.degraded_reason,
        }
