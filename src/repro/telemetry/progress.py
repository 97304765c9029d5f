"""Live run progress.

The engine's loop runs hundreds of thousands of emulated cycles per
second; a long run or sweep is otherwise a black box until the final
report.  :class:`ProgressMeter` fires a user callback roughly every
``interval_seconds`` of *wall clock* with a :class:`ProgressSample` —
cycles/sec, packets in flight, fraction of the run budget, fault state
— while costing the hot loop a single integer comparison per cycle:
the meter converts its wall-clock interval into a cycle count from the
measured speed and hands the engine the next *cycle* at which to call
:meth:`tick`, re-tuning the estimate at every firing.

Samples are observational only: they carry wall-clock readings and are
never stored in deterministic records (``scenario_metrics`` and the
result cache exclude them by construction).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class ProgressSample:
    """One progress reading of a running emulation."""

    cycle: int
    wall_seconds: float  # since the run started
    cycles_per_sec: float  # measured over the last interval
    packets_sent: int
    packets_received: int
    in_flight_flits: int
    #: Fraction of the run budget consumed (cycle limit if one was
    #: given, else the total TG packet budget); None when unbounded.
    budget_fraction: Optional[float]
    #: True while a fault is applied and unrepaired.
    faulted: bool = False
    #: True for the final sample emitted when the run stops.
    final: bool = False


class ProgressMeter:
    """Adaptively schedules progress callbacks on cycle boundaries.

    Parameters
    ----------
    platform:
        The running :class:`~repro.core.platform.EmulationPlatform`.
    callback:
        Called with each :class:`ProgressSample`.
    interval_seconds:
        Target wall-clock spacing between samples.
    limit_cycle:
        The run's absolute cycle limit, if any (used for
        ``budget_fraction``).
    """

    #: First check after this many cycles — quick enough to calibrate
    #: the cycles/sec estimate early, long enough to be free on short
    #: runs.
    INITIAL_CYCLES = 256
    MIN_CYCLES = 64
    MAX_CYCLES = 10_000_000

    def __init__(
        self,
        platform,
        callback: Callable[[ProgressSample], None],
        interval_seconds: float = 0.5,
        limit_cycle: Optional[int] = None,
    ) -> None:
        if interval_seconds <= 0:
            raise ValueError(
                f"interval_seconds must be > 0, got {interval_seconds}"
            )
        self.platform = platform
        self.callback = callback
        self.interval_seconds = interval_seconds
        self.limit_cycle = limit_cycle
        self.samples_emitted = 0
        self._start_cycle = 0
        self._start_wall = 0.0
        self._last_cycle = 0
        self._last_wall = 0.0
        self._interval_cycles = self.INITIAL_CYCLES
        #: The cycle of the next :meth:`tick`, as last returned.
        self.next_cycle = 0
        # Total packet budget across generators, when every generator
        # has one (the common bounded-run shape).
        budget = 0
        self._packet_budget: Optional[int] = None
        for g in platform.generators:
            if g.max_packets is None:
                budget = 0
                break
            budget += g.max_packets
        if budget > 0:
            self._packet_budget = budget

    def start(self, now: int) -> int:
        """Arm the meter at the run's first cycle; return the first
        check cycle."""
        self._start_cycle = now
        self._last_cycle = now
        self._start_wall = self._last_wall = time.perf_counter()  # repro: allow[wall-clock] live progress/ETA display reads the real clock by definition
        self.next_cycle = now + self._interval_cycles
        return self.next_cycle

    def tick(self, now: int, faulted: bool = False) -> int:
        """Emit a sample at cycle ``now``; return the next check cycle.

        Also re-tunes the cycle interval so the next callback lands
        about ``interval_seconds`` of wall clock away at the currently
        measured emulation speed.
        """
        self._emit(now, faulted, final=False)
        self.next_cycle = now + self._interval_cycles
        return self.next_cycle

    def finish(self, now: int, faulted: bool = False) -> None:
        """Emit the final sample as the run stops."""
        self._emit(now, faulted, final=True)

    # ------------------------------------------------------------------
    def _emit(self, now: int, faulted: bool, final: bool) -> None:
        wall = time.perf_counter()  # repro: allow[wall-clock] live progress/ETA display reads the real clock by definition
        dt = wall - self._last_wall
        dc = now - self._last_cycle
        cps = dc / dt if dt > 0 else 0.0
        if not final and dt > 0 and dc > 0:
            target = int(dc * self.interval_seconds / dt)
            self._interval_cycles = min(
                self.MAX_CYCLES, max(self.MIN_CYCLES, target)
            )
        self._last_wall = wall
        self._last_cycle = now
        platform = self.platform
        fraction: Optional[float] = None
        if self.limit_cycle is not None:
            span = self.limit_cycle - self._start_cycle
            if span > 0:
                fraction = min(
                    1.0, (now - self._start_cycle) / span
                )
        elif self._packet_budget is not None:
            fraction = min(
                1.0, platform.packets_received / self._packet_budget
            )
        self.samples_emitted += 1
        self.callback(
            ProgressSample(
                cycle=now,
                wall_seconds=wall - self._start_wall,
                cycles_per_sec=cps,
                packets_sent=platform.packets_sent,
                packets_received=platform.packets_received,
                in_flight_flits=platform.network.in_flight_flits,
                budget_fraction=fraction,
                faulted=faulted,
                final=final,
            )
        )


def format_progress(sample: ProgressSample) -> str:
    """One-line human rendering of a sample (CLI ``--progress``)."""
    parts = [
        f"cycle {sample.cycle:,}",
        f"{sample.cycles_per_sec:,.0f} c/s",
        f"{sample.packets_received}/{sample.packets_sent} pkts",
        f"{sample.in_flight_flits} in flight",
    ]
    if sample.budget_fraction is not None:
        parts.append(f"{sample.budget_fraction * 100:.0f}%")
    if sample.faulted:
        parts.append("FAULTED")
    if sample.final:
        parts.append("done")
    return "  ".join(parts)
