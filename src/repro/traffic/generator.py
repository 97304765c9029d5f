"""The traffic-generator device.

Slide 10 gives the TG structure: a bench of registers (parameterisation
and random initialisation), a packet generator producing the traffic
pattern, and a network interface converting packets into flits.  This
class is the packet-generator stage: it polls a
:class:`~repro.traffic.base.TrafficModel` once per cycle, stamps
emissions into :class:`~repro.noc.flit.Packet` objects and offers them
to the node's network interface.  The register bench lives in
``repro.core.devices``, which wraps this object behind the platform's
memory-mapped configuration interface.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.noc.flit import Packet, next_packet_id
from repro.noc.ni import NetworkInterface
from repro.traffic.base import TrafficModel

#: The emulation horizon: the sentinel cycle of a generator that can
#: never act again, and of every engine register (fault, telemetry,
#: progress, wall clock) with nothing scheduled.  An emission due at or
#: past it reads as never.
NEVER = 1 << 62


class TrafficGenerator:
    """Drives one network interface from a traffic model.

    Parameters
    ----------
    node:
        Source node index (stamped as ``packet.src``).
    model:
        The traffic process to poll.
    ni:
        Transmit-side network interface of the node.
    max_packets:
        Stop after this many packets (None = unlimited); the emulation
        software uses this to run "N sent packets" experiments.
    queue_limit:
        Maximum flits allowed in the NI source queue before the
        generator stalls, modelling the finite TG-to-NI FIFO of the
        hardware.  Finite queues are what make the average latency
        saturate at high congestion (Slide 22) instead of growing
        without bound.
    """

    #: Not checkpointed (see :mod:`repro.checkpoint.walker`): identity,
    #: config and platform hooks.
    __rebuilt__ = (
        "node", "ni", "max_packets", "queue_limit", "_clock",
        "new_pid", "on_count", "on_wake",
    )

    def __init__(
        self,
        node: int,
        model: TrafficModel,
        ni: NetworkInterface,
        max_packets: Optional[int] = None,
        queue_limit: int = 64,
    ) -> None:
        if max_packets is not None and max_packets < 0:
            raise ValueError(
                f"max_packets must be >= 0 or None, got {max_packets}"
            )
        if queue_limit < 1:
            raise ValueError(
                f"queue limit must be >= 1 flit, got {queue_limit}"
            )
        self.node = node
        self.model = model
        self.ni = ni
        self.max_packets = max_packets
        self.queue_limit = queue_limit
        self.enabled = True
        # Cycle before which the model is known silent, cached from
        # next_emission_cycle() so idle polls cost one comparison.
        self._silent_until = 0
        # Backpressure parking: when the NI source queue is full, the
        # generator stops being polled entirely (``_bp_since`` holds
        # the last cycle whose backpressure tick is settled) and the
        # NI's drain watch wakes it when the queue drops below
        # ``queue_limit``; the skipped per-cycle ticks settle in bulk.
        # Requires the platform clock (``_clock``) so control
        # operations (disable, budget writes) can settle mid-stretch;
        # without it — standalone generators in unit tests — the
        # generator keeps ticking per polled cycle as before.
        self._bp_since: Optional[int] = None
        self._clock: Optional[Callable[[], int]] = None
        # Platform hook: numbers each emitted packet.  A platform
        # draws pids from its own allocator; standalone generators
        # (unit tests) share the out-of-platform one.
        self.new_pid: Callable[[], int] = next_packet_id
        # Platform hook: called with a packet-count delta so aggregate
        # progress counters stay O(1) (positive on send, negative on
        # reset).
        self.on_count: Optional[Callable[[int], None]] = None
        # Platform hook: invalidates cached poll schedules whenever a
        # control operation (enable, reset, budget change) could make
        # this generator emit earlier than previously computed.
        self.on_wake: Optional[Callable[[], None]] = None
        # Statistics.
        self.packets_sent = 0
        self.flits_sent = 0
        self._backpressure_cycles = 0

    # ------------------------------------------------------------------
    # Control (driven by the platform's TG device registers)
    # ------------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True
        self.wake()

    def disable(self) -> None:
        # A disabled generator stops accruing backpressure ticks, so a
        # parked stretch must settle up to the cycle before the
        # control write took effect.
        self._settle_backpressure()
        self.enabled = False

    def wake(self) -> None:
        """Signal that this generator's poll schedule may have changed."""
        # Any control operation (enable, reset, budget write) can
        # change what the next poll would do: settle a parked
        # backpressure stretch first, then let the next poll
        # re-evaluate (and possibly re-park) from scratch.
        self._settle_backpressure()
        self._silent_until = 0
        if self.on_wake is not None:
            self.on_wake()

    def _settle_backpressure(self) -> None:
        """Account the per-cycle ticks of a parked backpressure stretch."""
        since = self._bp_since
        if since is None:
            return
        self._bp_since = None
        if self._clock is not None:
            until = self._clock() - 1
            if until > since:
                self._backpressure_cycles += until - since

    def _on_ni_drain(self, now: int) -> None:
        """NI drain watch: the source queue dropped below the limit.

        The pop happens in the network's inject phase of ``now``, a
        cycle whose (virtual) poll still saw a full queue: settle
        through ``now`` and resume polling next cycle.  Unlike a
        control operation this changes nothing about the *model's*
        schedule, so the ``_silent_until`` emission cache stays valid
        — the resumed poll rounds skip straight past the silent
        stretch instead of re-probing the model.
        """
        since = self._bp_since
        if since is None:
            return  # stale watch (reset/control op already unparked)
        self._bp_since = None
        if now > since:
            self._backpressure_cycles += now - since
        if self.on_wake is not None:
            self.on_wake()

    def reset(self, seed: Optional[int] = None) -> None:
        """Rewind the model and clear the run counters."""
        self.model.reset(seed)
        if self.on_count is not None and self.packets_sent:
            self.on_count(-self.packets_sent)
        self.packets_sent = 0
        self.flits_sent = 0
        # Pre-reset backpressure (settled or parked) is discarded.
        self._bp_since = None
        self._backpressure_cycles = 0
        self.wake()

    @property
    def backpressure_cycles(self) -> int:
        """Cycles stalled on a full NI queue (settled through the last
        emulated cycle, including any still-parked stretch)."""
        if self._bp_since is not None and self._clock is not None:
            pending = self._clock() - 1 - self._bp_since
            if pending > 0:
                return self._backpressure_cycles + pending
        return self._backpressure_cycles

    @property
    def done(self) -> bool:
        """True once the packet budget is exhausted."""
        if self.max_packets is None:
            return False
        return self.packets_sent >= self.max_packets

    def next_emission_cycle(self, now: int) -> Optional[int]:
        """Earliest cycle ``>= now`` this generator may emit, else None.

        Mirrors :meth:`TrafficModel.next_emission_cycle` with the
        generator-level stop conditions folded in; the platform's idle
        fast-forward takes the minimum over all generators.
        """
        if not self.enabled or self.done:
            return None
        return self.model.next_emission_cycle(now)

    def next_poll_cycle(self, after: int) -> int:
        """Earliest cycle ``>= after`` at which :meth:`step` could do
        anything observable — emit a packet or count a backpressure
        cycle.  The platform skips whole generator rounds until the
        minimum over all generators, which keeps idle polling off the
        hot path while preserving every statistic bit-for-bit.
        """
        if not self.enabled or self.done:
            return NEVER
        if self._bp_since is not None:
            # Backpressure-parked: the NI drain watch (or a control
            # operation) wakes us; until then no poll can observe
            # anything that bulk settlement does not already account.
            return NEVER
        if self.ni.pending_flits >= self.queue_limit:
            return after  # backpressure accounting is per-cycle
        t = self.model.next_emission_cycle(after)
        if t is None:
            return NEVER
        return t if t > after else after

    # ------------------------------------------------------------------
    # Per-cycle interface
    # ------------------------------------------------------------------
    def step(self, now: int) -> Optional[Packet]:
        """Poll the model for cycle ``now``; return the emitted packet."""
        if not self.enabled or self.done:
            return None
        if self._bp_since is not None:
            # Parked on backpressure: ticks settle in bulk on wake-up,
            # so a poll forced by another generator's round is free.
            return None
        if self.ni.pending_flits >= self.queue_limit:
            self._backpressure_cycles += 1
            if self._clock is not None:
                # Park: stop polling until the NI queue drains below
                # the limit (or a control operation intervenes).
                self._bp_since = now
                self.ni.watch_drain(self.queue_limit, self._on_ni_drain)
            return None
        if now < self._silent_until:
            return None  # model contractually silent until then
        emission = self.model.poll(now)
        if emission is None:
            nxt = self.model.next_emission_cycle(now + 1)
            # None = never again; park the cache past any realistic run.
            self._silent_until = NEVER if nxt is None else nxt
            return None
        length, dst, burst_id = emission
        packet = Packet(
            src=self.node,
            dst=dst,
            length=length,
            injection_cycle=now,
            burst_id=burst_id,
            pid=self.new_pid(),
        )
        self.ni.offer(packet)
        self.packets_sent += 1
        self.flits_sent += length
        if self.on_count is not None:
            self.on_count(1)
        return packet
