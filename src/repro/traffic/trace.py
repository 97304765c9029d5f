"""Trace-driven traffic.

Slide 9: "Trace driven traffic generators: Generates traffic from a
trace recorded on a real life application."  We do not have the
authors' application traces, so this module provides (a) the trace
format and replay engine, and (b) synthetic trace producers that expose
the exact parameters the paper's trace-driven figures sweep —
packets per burst and flits per packet — plus an MPEG-like
frame-structured producer standing in for a "real life application"
recording (see DESIGN.md §2 for the substitution rationale).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.traffic.base import (
    GAP,
    LENGTH,
    PACKETS_PER_BURST,
    DestinationChooser,
    TrafficModel,
)
from repro.traffic.rng import LfsrRandom
from repro.util import Param


@dataclass(frozen=True)
class TraceRecord:
    """One packet emission recorded in a trace."""

    cycle: int
    dst: int
    length: int
    burst_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ValueError(f"trace cycle must be >= 0, got {self.cycle}")
        if self.length < 1:
            raise ValueError(
                f"trace packet length must be >= 1, got {self.length}"
            )


class Trace:
    """An ordered sequence of :class:`TraceRecord` with metadata."""

    def __init__(
        self, records: Iterable[TraceRecord], name: str = "trace"
    ) -> None:
        self.records: List[TraceRecord] = sorted(
            records, key=lambda r: r.cycle
        )
        self.name = name

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, index: int) -> TraceRecord:
        return self.records[index]

    @property
    def total_flits(self) -> int:
        return sum(r.length for r in self.records)

    @property
    def span_cycles(self) -> int:
        """Cycles from the first to one past the last recorded emission."""
        if not self.records:
            return 0
        return self.records[-1].cycle + 1 - self.records[0].cycle

    @property
    def offered_load(self) -> float:
        """Recorded flits per cycle over the trace span."""
        span = self.span_cycles
        return self.total_flits / span if span else 0.0


class TraceTraffic(TrafficModel):
    """Replay a trace through the standard traffic-model interface.

    Replay is *causal*: a record is never emitted before its recorded
    cycle; when several records share a cycle (or the NI backpressures
    the generator), emissions slip to consecutive cycles, preserving
    order — exactly how the hardware trace-driven TG streams a trace
    memory through its network interface.
    """

    __rebuilt__ = ("trace",)

    PARAMS = {
        "trace": Param(Trace),
        "n_bursts": Param(int, 1, default=256, label="burst count"),
        "packets_per_burst": PACKETS_PER_BURST,
        "flits_per_packet": replace(LENGTH, label="flits per packet"),
        # Paces bursts of the default size to the scenario's load.
        "gap": replace(GAP, default=lambda length, load: round(
            PACKETS_PER_BURST.default * length * (1.0 - load) / load
        )),
    }
    FORMS = ("__init__", "for_bursts")

    def __init__(self, trace: Trace, seed: int = 1) -> None:
        super().__init__(seed)
        self.trace = trace
        self._cursor = 0

    @classmethod
    def check_form(cls, factory, kwargs) -> None:
        """Nothing to check: a trace form derives no value beyond its
        declared ones, and building one generates its whole trace."""

    @classmethod
    def for_bursts(
        cls,
        n_bursts: int,
        packets_per_burst: int,
        flits_per_packet: int,
        gap: int,
        destination: DestinationChooser,
        seed: int = 1,
    ) -> "TraceTraffic":
        """Replay a :func:`synthetic_burst_trace` whose bursts each go
        to one of ``destination``'s nodes."""
        trace = synthetic_burst_trace(
            n_bursts, packets_per_burst, flits_per_packet, gap,
            dst=destination.destinations(), seed=seed,
        )
        return cls(trace, seed=seed)

    def reset(self, seed: Optional[int] = None) -> None:
        super().reset(seed)
        self._cursor = 0

    def poll(self, now: int) -> Optional[Tuple[int, int, Optional[int]]]:
        if self._cursor >= len(self.trace.records):
            return None
        record = self.trace.records[self._cursor]
        if now < record.cycle:
            return None
        self._cursor += 1
        return (record.length, record.dst, record.burst_id)

    def next_emission_cycle(self, now: int) -> Optional[int]:
        if self._cursor >= len(self.trace.records):
            return None  # trace replayed to the end; never emits again
        return max(now, self.trace.records[self._cursor].cycle)

    @property
    def exhausted(self) -> bool:
        return self._cursor >= len(self.trace.records)

    def expected_load(self) -> Optional[float]:
        return self.trace.offered_load or None


# ----------------------------------------------------------------------
# Serialisation (the format a recording probe would write)
# ----------------------------------------------------------------------
_HEADER = "# repro-noc trace v1: cycle dst length burst_id"


def save_trace(trace: Trace, path_or_file: Union[str, io.TextIOBase]) -> None:
    """Write a trace in the line-oriented interchange format."""

    def _write(fh) -> None:
        fh.write(_HEADER + "\n")
        fh.write(f"# name: {trace.name}\n")
        for r in trace.records:
            burst = "-" if r.burst_id is None else str(r.burst_id)
            fh.write(f"{r.cycle} {r.dst} {r.length} {burst}\n")

    if isinstance(path_or_file, str):
        with open(path_or_file, "w", encoding="utf-8") as fh:
            _write(fh)
    else:
        _write(path_or_file)


def load_trace(path_or_file: Union[str, io.TextIOBase]) -> Trace:
    """Read a trace written by :func:`save_trace`."""

    def _read(fh) -> Trace:
        name = "trace"
        records: List[TraceRecord] = []
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith("# name:"):
                    name = line.split(":", 1)[1].strip()
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(
                    f"malformed trace line {line_no}: {line!r}"
                )
            cycle, dst, length, burst = parts
            records.append(
                TraceRecord(
                    cycle=int(cycle),
                    dst=int(dst),
                    length=int(length),
                    burst_id=None if burst == "-" else int(burst),
                )
            )
        return Trace(records, name=name)

    if isinstance(path_or_file, str):
        with open(path_or_file, "r", encoding="utf-8") as fh:
            return _read(fh)
    return _read(path_or_file)


# ----------------------------------------------------------------------
# Synthetic trace producers (stand-ins for real application recordings)
# ----------------------------------------------------------------------
def synthetic_burst_trace(
    n_bursts: int,
    packets_per_burst: int,
    flits_per_packet: int,
    gap: int,
    dst: Union[int, Sequence[int]],
    start: int = 0,
    seed: int = 1,
    name: Optional[str] = None,
) -> Trace:
    """A burst-structured trace with the exact paper sweep parameters.

    ``n_bursts`` bursts of ``packets_per_burst`` back-to-back packets of
    ``flits_per_packet`` flits, separated by ``gap`` idle cycles.  When
    ``dst`` is a sequence, each burst picks its destination uniformly
    (whole bursts stay on one destination, like a DMA transfer).
    """
    TraceTraffic.check(
        n_bursts=n_bursts,
        packets_per_burst=packets_per_burst,
        flits_per_packet=flits_per_packet,
        gap=gap,
    )
    rng = LfsrRandom(seed)
    dsts: Sequence[int] = (dst,) if isinstance(dst, int) else tuple(dst)
    records: List[TraceRecord] = []
    cycle = start
    for burst in range(n_bursts):
        burst_dst = dsts[0] if len(dsts) == 1 else rng.choice(dsts)
        for _ in range(packets_per_burst):
            records.append(
                TraceRecord(cycle, burst_dst, flits_per_packet, burst)
            )
            cycle += flits_per_packet  # back-to-back serialisation
        cycle += gap
    trace_name = name or (
        f"burst_b{packets_per_burst}_f{flits_per_packet}_g{gap}"
    )
    return Trace(records, name=trace_name)


#: Relative frame sizes of an MPEG-like group of pictures.
_GOP_PATTERN = ("I", "B", "B", "P", "B", "B", "P", "B", "B", "P", "B", "B")
_FRAME_PACKETS = {"I": 12, "P": 5, "B": 2}


def synthetic_mpeg_trace(
    n_frames: int,
    dst: int,
    flits_per_packet: int = 8,
    frame_interval: int = 512,
    size_jitter: float = 0.25,
    start: int = 0,
    seed: int = 7,
) -> Trace:
    """An MPEG-decoder-like frame trace (substitute "real application").

    Frames arrive every ``frame_interval`` cycles following an IBBP
    group-of-pictures pattern; each frame is a burst whose packet count
    scales with the frame type (I ≫ P > B) with multiplicative jitter.
    This reproduces the heavy-tailed, periodic-burst structure of a
    recorded multimedia trace, which is what the paper's trace-driven
    experiments feed the platform.
    """
    if n_frames < 1:
        raise ValueError(f"need >= 1 frame, got {n_frames}")
    if not 0.0 <= size_jitter < 1.0:
        raise ValueError(
            f"size jitter must be in [0, 1), got {size_jitter}"
        )
    rng = LfsrRandom(seed)
    records: List[TraceRecord] = []
    for frame in range(n_frames):
        kind = _GOP_PATTERN[frame % len(_GOP_PATTERN)]
        base = _FRAME_PACKETS[kind]
        if size_jitter:
            lo = max(1, round(base * (1.0 - size_jitter)))
            hi = max(lo, round(base * (1.0 + size_jitter)))
            packets = rng.uniform_int(lo, hi)
        else:
            packets = base
        cycle = start + frame * frame_interval
        for _ in range(packets):
            records.append(
                TraceRecord(cycle, dst, flits_per_packet, frame)
            )
            cycle += flits_per_packet
    return Trace(records, name=f"mpeg_{n_frames}f")
