"""The emulation engine.

Runs a platform until its traffic budget completes (or a cycle/packet
limit is hit), measuring both the *emulated* time — cycles at the
platform clock, the quantity Slide 18 reports as "Our Emulation" — and
the *wall-clock* throughput of this software engine in emulated cycles
per second, which the speed-comparison bench contrasts with the RTL and
TLM baseline engines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional, Tuple

from repro.core.config import F_CLK_HZ
from repro.core.errors import EmulationError, ScenarioTimeout
from repro.core.platform import EmulationPlatform, build_platform
from repro.noc.network import format_parked_report
from repro.traffic.generator import NEVER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.report import FaultReport
    from repro.faults.schedule import FaultSchedule

#: Cycles between cooperative wall-clock checks of a deadlined run.
#: Reading the host clock every cycle would dominate the hot loop; at
#: tens of thousands of cycles per second this granularity bounds the
#: overshoot to well under a second while costing one comparison per
#: cycle (the same register discipline as faults and telemetry).
_WALL_CHECK_CYCLES = 4096

#: Cycles the fabric may hold flits without delivering a packet before
#: the deadlock guard trips.  Read once per ``run()``.
STAGNATION_CYCLES = 100_000


@dataclass
class EngineResult:
    """Outcome of one emulation run.

    ``completed`` is True only when the traffic budget is exhausted
    *and* the network drained — it is always ``budget_done and
    drained``; a run cut short by ``max_cycles``/``max_packets``
    reports ``budget_done=False``.

    ``faults`` carries the degradation record of a run driven with a
    fault schedule (None on healthy runs).  ``windows`` carries the
    windowed-telemetry time series of a run driven with a
    :class:`~repro.telemetry.windows.WindowedMetrics` collector (None
    otherwise); the records are deterministic — wall-clock lives only
    in ``wall_seconds``.  ``cycles`` counts one ``run()`` call, but the
    stagnation guard's progress registers live on the engine and carry
    across calls, so a chunked run stops where a single call would.
    """

    cycles: int
    packets_sent: int
    packets_received: int
    wall_seconds: float
    completed: bool  # budget_done and drained
    budget_done: bool = False  # every TG budget/trace exhausted
    drained: bool = False  # no flit queued, buffered or in flight
    faults: Optional["FaultReport"] = None
    windows: Optional[Tuple] = None  # WindowRecord time series

    @property
    def emulated_seconds(self) -> float:
        """Time the run would take on the 50 MHz FPGA platform."""
        return self.cycles / F_CLK_HZ

    @property
    def engine_cycles_per_sec(self) -> float:
        """Measured speed of this software engine."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.cycles / self.wall_seconds

    @property
    def cycles_per_packet(self) -> float:
        """Calibration constant for the run-time model."""
        if self.packets_received == 0:
            return 0.0
        return self.cycles / self.packets_received


@dataclass
class DegradedResult(EngineResult):
    """Graceful-degradation outcome of a faulted run.

    Returned (instead of raising the deadlock guard's
    :class:`EmulationError`) when the run stagnates while a fault has
    been applied — the structured escalation path for unrepaired or
    unrepairable faults.  ``parked`` snapshots
    :meth:`~repro.noc.network.Network.parked_report` at the moment the
    watchdog tripped, naming every input whose wake event never came.
    """

    degraded_reason: str = ""
    parked: Tuple[dict, ...] = ()


class EmulationEngine:
    """Drives an :class:`~repro.core.platform.EmulationPlatform`.

    The engine owns the run loop the embedded processor's firmware
    implements on the real platform: start the control module, step
    until the stop condition, stop, and hand the platform back for
    statistics readout.
    """

    def __init__(
        self,
        platform: EmulationPlatform,
        faults: Optional["FaultSchedule"] = None,
        telemetry=None,
    ) -> None:
        self.platform = platform
        self.faults = faults
        #: Optional :class:`~repro.telemetry.windows.WindowedMetrics`;
        #: the run drives it at window boundaries and the result
        #: carries its records as ``EngineResult.windows``.
        self.telemetry = telemetry
        #: The live :class:`~repro.faults.injector.FaultInjector` of a
        #: faulted run.  Created on the first ``run()`` and kept, so a
        #: chunked run (``finalize=False``) resumes the schedule
        #: mid-flight instead of restarting it; checkpoint/restore
        #: captures and re-seats it.
        self._injector = None
        #: The stagnation guard's progress registers: packets received
        #: at, and the cycle of, the last delivery or quiescent cycle.
        #: They carry across ``run()`` calls, so a chunked run trips
        #: the guard at the same cycle as an uninterrupted one; a
        #: restored engine starts them at the cut.
        self._last_received = platform.packets_received
        self._last_progress_cycle = platform.cycle
        #: The live :class:`~repro.telemetry.progress.ProgressMeter`,
        #: kept across ``finalize=False`` chunks so a chunked run
        #: reports as one; finalizing emits its final sample.
        self._meter = None

    def run(
        self,
        max_cycles: Optional[int] = None,
        max_packets: Optional[int] = None,
        fast_forward: bool = True,
        progress=None,
        finalize: bool = True,
        max_wall_seconds: Optional[float] = None,
    ) -> EngineResult:
        """Run until done (budget exhausted + drained) or a limit hits.

        ``max_packets`` stops once that many packets have been
        *received* platform-wide (the "number of sent packets" axis of
        Slide 20 is swept by setting TG budgets instead).  Every stop
        condition is checked every cycle (the completion counters are
        O(1)), so the overshoot is bounded by the deliveries of the
        final cycle: several receptors can each complete a packet in
        the same cycle.

        ``fast_forward`` lets the engine jump the emulated clock over
        quiescent stretches (see
        :meth:`~repro.core.platform.EmulationPlatform.idle_fast_forward`);
        bursty and low-load workloads skip the idle majority of
        emulated time with bit-identical results.
        :data:`STAGNATION_CYCLES` bounds how long the drain phase may
        go without a single packet delivery before the deadlock guard
        trips; its progress clock is engine state that carries across
        ``run()`` calls.

        ``progress`` is an optional callback fired with live
        :class:`~repro.telemetry.progress.ProgressSample` readings
        roughly every half wall-clock second (plus a final sample when
        the run is finalized); it is observational only and never
        perturbs the emulated schedule.  A chunk's meter lives on to
        the next chunk and, not knowing where the run ends, measures
        the budget fraction against the packet budget.  With a
        telemetry collector attached, window boundaries are checked
        with the same one-comparison-per-cycle discipline as fault
        events, and an idle fast-forward lands on a window boundary so
        the skipped windows emit as zero-delta records (parking and
        fast-forward stay fully engaged — nothing is sampled per
        cycle).

        ``max_wall_seconds`` arms the cooperative timeout: the loop
        re-reads the host clock every few thousand cycles and raises a
        structured :class:`~repro.core.errors.ScenarioTimeout` once
        the budget is spent.  This is what lets a sweep worker abort a
        wedged scenario *cleanly* (the supervisor's watchdog kill is
        the backstop for runs stuck outside the loop); it never
        perturbs the emulated schedule — a run that finishes in budget
        is bit-identical to an undeadlined one.

        ``finalize=False`` runs a *chunk* of a longer emulation: the
        fault report is returned live (no end-window cut) and the
        telemetry collector's partial window stays open, so a
        follow-up ``run()`` on the same engine — or on the engine
        restored from a checkpoint of this one — continues
        bit-identically to a single uninterrupted run.  Close the
        books with :meth:`finalize_run` after the last chunk.  Stop
        conditions are checked after the cycle's bookkeeping, so a
        chunk boundary is invisible to the stagnation guard.
        """
        if max_cycles is None and max_packets is None:
            budget_bounded = all(
                g.max_packets is not None
                or getattr(g.model, "exhausted", None) is not None
                for g in self.platform.generators
            )
            if not budget_bounded:
                raise EmulationError(
                    "unbounded run: no max_cycles/max_packets and at"
                    " least one generator has no packet budget"
                )
        platform = self.platform
        network = platform.network
        platform.control.start()
        start_cycle = platform.cycle
        limit_cycle = (
            None if max_cycles is None else start_cycle + max_cycles
        )
        started = time.perf_counter()  # repro: allow[wall-clock] wall-seconds telemetry of the run report; cycles are the deterministic clock
        gens_done = False
        last_received = self._last_received
        last_progress_cycle = self._last_progress_cycle
        skip_idle = fast_forward and not network.sample_buffers
        stagnation_cycles = STAGNATION_CYCLES
        # The loop body inlines platform.step (generator round + one
        # network cycle): at hundreds of thousands of cycles per
        # second, even one spare call per cycle is measurable.
        control = platform.control
        net_step = network.step
        poll_generators = platform.poll_generators
        # Fault injection: the injector asks for the cycles it needs
        # (event cycles, plus every cycle of a flaky window or an
        # unresolved recovery watch); healthy runs pay one comparison
        # per cycle.
        injector = self._injector
        fault_next = NEVER
        if injector is not None:
            # Resuming (a later chunk of a finalize=False run, or a
            # restored checkpoint): re-derive the wake register from
            # the cycle *before* the boundary, so a flaky window or
            # recovery watch active across it still ticks at
            # start_cycle exactly as the uninterrupted loop would.
            fault_next = injector._wake_cycle(start_cycle - 1)
        elif self.faults is not None and self.faults.events:
            from repro.faults.injector import FaultInjector

            injector = self._injector = FaultInjector(
                self.faults, platform
            )
            fault_next = injector.begin(start_cycle)
        # Windowed telemetry and live progress use the same shape as
        # fault injection: a "next interesting cycle" register checked
        # once per cycle, so disabled telemetry costs one comparison
        # and enabled telemetry costs nothing between boundaries.
        telemetry = self.telemetry
        tel_next = NEVER
        if telemetry is not None:
            tel_next = telemetry.begin(start_cycle)
        meter = self._meter
        prog_next = NEVER
        if meter is not None:
            prog_next = meter.next_cycle
        elif progress is not None:
            from repro.telemetry.progress import ProgressMeter

            meter = self._meter = ProgressMeter(
                platform,
                progress,
                limit_cycle=limit_cycle if finalize else None,
            )
            prog_next = meter.start(start_cycle)
        # Cooperative wall-clock budget: same one-comparison register
        # shape as faults/telemetry; disabled runs never read the
        # clock.
        wall_next = NEVER
        wall_deadline = 0.0
        if max_wall_seconds is not None:
            if max_wall_seconds < 0:
                raise EmulationError(
                    f"max_wall_seconds must be >= 0, got"
                    f" {max_wall_seconds}"
                )
            wall_deadline = started + max_wall_seconds
            wall_next = start_cycle
        degraded_reason: Optional[str] = None
        parked_snapshot: tuple = ()
        while control.running:
            now = network.cycle
            if now >= wall_next:
                elapsed = time.perf_counter() - started  # repro: allow[wall-clock] cooperative timeout check; never enters a deterministic record
                if elapsed >= max_wall_seconds:
                    raise ScenarioTimeout(
                        f"scenario exceeded its {max_wall_seconds}s"
                        f" wall-clock budget at cycle {now}"
                        f" ({elapsed:.2f}s elapsed)",
                        cycle=now,
                        elapsed=elapsed,
                    )
                wall_next = now + _WALL_CHECK_CYCLES
            if now >= tel_next:
                # Before the fault tick: a fault applied at cycle
                # ``now`` belongs to the window *starting* here, not
                # the one closing here.
                tel_next = telemetry.advance(now)
            if now >= fault_next:
                fault_next = injector.tick(now)
            if now >= prog_next:
                prog_next = meter.tick(
                    now, injector is not None and injector.faulted
                )
            if now >= platform._next_gen_poll:
                poll_generators(now)
            net_step()
            if (
                max_packets is not None
                and platform._packets_received >= max_packets
            ):
                break
            received = platform._packets_received
            if network._in_flight_flits == 0:
                # Quiescent fabric: the (rare) slow-path checks.
                last_received = received
                last_progress_cycle = network.cycle
                if not gens_done:
                    gens_done = platform.generators_done
                if gens_done and network.is_drained:
                    break
                ff_limit = limit_cycle
                if fault_next < NEVER and (
                    ff_limit is None or fault_next < ff_limit
                ):
                    # Never jump the clock over a pending fault event.
                    ff_limit = fault_next
                if (
                    ff_limit is None
                    and not gens_done
                    and platform._next_gen_poll >= NEVER
                ):
                    raise _idle_to_the_horizon(platform)
                if tel_next < NEVER:
                    # Telemetry on: land the jump on a window boundary
                    # so the advance() at the landing cycle emits the
                    # fully-skipped windows as zero-delta records; the
                    # residual sub-window idle stretch is jumped by
                    # the next fast-forward, which crosses no boundary
                    # and goes un-rounded.
                    target = platform._next_gen_poll
                    if ff_limit is not None and ff_limit < target:
                        target = ff_limit
                    ff_limit = telemetry.ff_landing(target)
                if skip_idle and platform.idle_fast_forward(ff_limit):
                    # The jump is idle time, not stagnation: restart
                    # the progress clock at the landing cycle.
                    last_progress_cycle = network.cycle
            elif received != last_received:
                last_received = received
                last_progress_cycle = network.cycle
            elif (
                network.cycle - last_progress_cycle
                >= stagnation_cycles
            ):
                # Deadlock guard: flits in flight but none delivered
                # for a whole stagnation window.
                parked_snapshot = tuple(network.parked_report())
                detail = format_parked_report(list(parked_snapshot))
                if injector is not None and injector.faulted:
                    # Watchdog escalation: stagnating with a fault
                    # applied is degradation, not a framework bug —
                    # report it structurally instead of raising.
                    degraded_reason = (
                        f"{network.in_flight_flits} flits stuck"
                        f" without progress for {stagnation_cycles}"
                        f" cycles after fault injection; {detail}"
                    )
                    break
                raise EmulationError(
                    f"network failed to drain:"
                    f" {network.in_flight_flits} flits stuck"
                    f" without progress for {stagnation_cycles}"
                    f" cycles (possible routing deadlock); {detail}"
                )
            if limit_cycle is not None and network.cycle >= limit_cycle:
                break
        self._last_received = last_received
        self._last_progress_cycle = last_progress_cycle
        wall = time.perf_counter() - started  # repro: allow[wall-clock] wall-seconds telemetry of the run report; cycles are the deterministic clock
        platform.control.stop()
        budget_done = gens_done or platform.generators_done
        drained = network.is_drained
        result = EngineResult(
            cycles=platform.cycle - start_cycle,
            packets_sent=platform.packets_sent,
            packets_received=platform.packets_received,
            wall_seconds=wall,
            completed=budget_done and drained,
            budget_done=budget_done,
            drained=drained,
            faults=None if injector is None else injector.report,
            windows=None if telemetry is None else tuple(telemetry.records),
        )
        if degraded_reason is not None:
            result = DegradedResult(
                **vars(result),
                degraded_reason=degraded_reason,
                parked=parked_snapshot,
            )
        return self.finalize_run(result) if finalize else result

    def finalize_run(self, result: EngineResult) -> EngineResult:
        """Close fault/telemetry bookkeeping after ``finalize=False``
        chunks, without emulating another cycle.

        Cuts the fault report's end window, closes the telemetry
        collector's partial window at the current cycle and emits the
        progress meter's final sample — what a ``finalize=True`` run
        does at its own end, through this method — and returns
        ``result`` with the finalized report and window tuple swapped
        in.
        """
        cycle = self.platform.cycle
        fault_report = result.faults
        if self._injector is not None:
            degraded = isinstance(result, DegradedResult)
            fault_report = self._injector.finalize(
                cycle,
                degraded=degraded,
                reason=result.degraded_reason if degraded else None,
            )
        windows = result.windows
        if self.telemetry is not None:
            self.telemetry.finish(cycle)
            windows = tuple(self.telemetry.records)
        if self._meter is not None:
            self._meter.finish(
                cycle,
                self._injector is not None and self._injector.faulted,
            )
            self._meter = None
        return replace(result, faults=fault_report, windows=windows)


def _waits_for_the_horizon(engine: EmulationEngine) -> bool:
    """Whether ``engine``'s run, stopped between chunks, has an idle
    fabric, generators with budget left, and neither an emission nor
    a fault event due before :data:`NEVER`."""
    platform = engine.platform
    injector = engine._injector
    return (
        platform.network._in_flight_flits == 0
        and platform._next_gen_poll >= NEVER
        and not platform.generators_done
        and (
            injector is None
            or injector._wake_cycle(platform.cycle - 1) >= NEVER
        )
    )


def _idle_to_the_horizon(platform: EmulationPlatform) -> EmulationError:
    """The error of a run with an idle fabric, no cycle limit and no
    generator that can poll before :data:`NEVER`: stepping on would
    spin until the horizon."""
    waiting = ", ".join(
        f"TG {g.node} ({g.packets_sent} of"
        f" {'unlimited' if g.max_packets is None else g.max_packets}"
        f" packets sent{'' if g.enabled else ', disabled'})"
        for g in platform.generators
        if not g.done
    )
    return EmulationError(
        f"run cannot end: at cycle {platform.cycle} the fabric is idle"
        f" and no generator can emit before the horizon, cycle {NEVER};"
        f" generators with budget left: {waiting}"
    )


def build_engine(
    spec, faults=None, windows: Optional[int] = None
) -> Tuple[EmulationPlatform, EmulationEngine]:
    """``spec``'s fresh platform and the engine that runs it, with the
    spec's fault schedule and telemetry windows attached, or
    ``faults`` and ``windows`` (window length in cycles) in their
    place when given."""
    platform = build_platform(spec.to_platform_config())
    if faults is None:
        faults = spec.faults
    if windows is None:
        windows = spec.telemetry_windows
    telemetry = None
    if windows is not None:
        from repro.telemetry.windows import WindowedMetrics

        telemetry = WindowedMetrics(platform, windows)
    return platform, EmulationEngine(
        platform, faults=faults, telemetry=telemetry
    )


def drive(
    engine: EmulationEngine,
    spec=None,
    checkpoint_out: Optional[str] = None,
    every: Optional[int] = None,
    progress=None,
    max_wall_seconds: Optional[float] = None,
) -> EngineResult:
    """Run ``engine``'s scenario to its end and close its books.

    The one execution path of a scenario, shared by
    :func:`~repro.experiments.runner.run_scenario` and ``repro run``:
    ``finalize=False`` chunks of ``every`` cycles (a single chunk when
    None), then :meth:`EmulationEngine.finalize_run`.  With
    ``checkpoint_out``, the checkpoint of ``spec`` is atomically
    rewritten after every chunk, the last one included, before the
    books close; a crash leaves the previous good one.  The result
    covers the whole run: ``cycles`` from the first chunk's start,
    ``wall_seconds`` summed over the chunks (checkpoint writes
    excluded) and one ``progress`` meter across them.
    ``max_wall_seconds`` is each chunk's wall-clock budget.
    """
    platform = engine.platform
    start_cycle = platform.cycle
    wall = 0.0
    if checkpoint_out is not None:
        from repro.checkpoint import snapshot
    while True:
        result = engine.run(
            max_cycles=every,
            finalize=False,
            progress=progress,
            max_wall_seconds=max_wall_seconds,
        )
        wall += result.wall_seconds
        if checkpoint_out is not None:
            snapshot(platform, spec, engine).save(checkpoint_out)
        if (
            every is None
            or result.completed
            or isinstance(result, DegradedResult)
        ):
            break
        if _waits_for_the_horizon(engine):
            # Each chunk would jump to its own end: no chunk ends it.
            raise _idle_to_the_horizon(platform)
    return engine.finalize_run(
        replace(
            result, cycles=platform.cycle - start_cycle, wall_seconds=wall
        )
    )
