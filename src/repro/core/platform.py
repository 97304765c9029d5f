"""The emulation platform.

Assembles the hardware side of the framework (Slide 8): the network of
switches, one TG device per traffic generator, one TR device per
receptor, and the control module, all attached to the bus fabric so the
processor "can access each component by accessing their specific
addresses".  :func:`build_platform` is the platform-compilation step of
the flow: it elaborates a :class:`~repro.core.config.PlatformConfig`
into a runnable platform.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.bus import BusFabric
from repro.core.config import (
    PlatformConfig,
    TGSpec,
    TRSpec,
    make_traffic_model,
)
from repro.core.control import ControlDevice
from repro.core.devices import TGDevice, TRDevice
from repro.core.errors import ConfigError
from repro.noc.network import Network
from repro.noc.routing import unrouted_destinations
from repro.noc.topology import Topology
from repro.receptors.base import TrafficReceptor
from repro.receptors.stochastic import StochasticReceptor
from repro.receptors.tracedriven import TraceDrivenReceptor
from repro.traffic.generator import NEVER, TrafficGenerator


def _build_receptor(spec: TRSpec, n_nodes: int) -> TrafficReceptor:
    params = dict(spec.params)
    if spec.kind == "stochastic":
        params.setdefault("n_sources", n_nodes)
        return StochasticReceptor(spec.node, **params)
    return TraceDrivenReceptor(spec.node, **params)


class EmulationPlatform:
    """A fully elaborated, runnable emulation platform.

    Use :func:`build_platform` (or the :class:`~repro.core.flow.
    EmulationFlow`) to construct one.  The platform advances one clock
    cycle per :meth:`step`: traffic generators poll their models, then
    the network moves flits, then receptors see completed packets
    (their callbacks fire from within the network's ejection phase).
    """

    #: Not checkpointed as values (see :mod:`repro.checkpoint.walker`):
    #: the structure ``build_platform`` rebuilds from the spec, whose
    #: components checkpoint code walks one by one.
    __rebuilt__ = (
        "config", "topology", "network", "generators", "receptors",
        "fabric", "control", "tg_devices", "tr_devices",
        # Mapped by hand to the checkpoint's top-level "next_pid".
        "next_pid",
    )

    def __init__(
        self,
        config: PlatformConfig,
        topology: Topology,
        network: Network,
        generators: List[TrafficGenerator],
        receptors: List[TrafficReceptor],
    ) -> None:
        self.config = config
        self.topology = topology
        self.network = network
        self.generators = generators
        self.receptors = receptors
        self.fabric = BusFabric()
        self.control = ControlDevice()
        self.tg_devices: List[TGDevice] = []
        self.tr_devices: List[TRDevice] = []
        # The pid the next emitted packet gets.  Pids feed the
        # multipath hash and the flaky-drop RNG, so each platform
        # numbers its own packets: its traffic depends only on its
        # registers, never on what else the process built.
        self.next_pid = 0
        # O(1) platform-wide progress counters, maintained by delta
        # hooks on every generator/receptor (so resets through any
        # path — engine, bus registers, reset_statistics — stay
        # consistent) instead of per-query sum() scans.
        self._packets_sent = sum(g.packets_sent for g in generators)
        self._packets_received = sum(
            r.packets_received for r in receptors
        )
        for index, generator in enumerate(generators):
            generator.new_pid = self._new_pid
            generator.on_count = self._count_sent
            generator.on_wake = self._make_gen_wake(index)
            # The platform clock enables backpressure parking: a
            # generator facing a full NI queue stops being polled (the
            # NI drain watch wakes it) and bulk-settles its stall
            # ticks; control operations use the clock to settle
            # mid-stretch.  Standalone generators (no clock) keep the
            # per-cycle behaviour.
            generator._clock = self._now_cycle
        for receptor in receptors:
            receptor.on_count = self._count_received
        # Earliest cycle at which any generator could act (emit or
        # count backpressure); whole generator rounds are skipped
        # until then.  ``_gen_next`` caches the same bound *per
        # generator*, so a mandatory round steps only the generators
        # actually due rather than the whole population.  Control
        # operations invalidate both through the wake hook.
        self._next_gen_poll = 0
        self._gen_next = [0] * len(generators)
        self._attach_devices()

    def _now_cycle(self) -> int:
        return self.network.cycle

    def _new_pid(self) -> int:
        pid = self.next_pid
        self.next_pid = pid + 1
        return pid

    def _count_sent(self, delta: int) -> None:
        self._packets_sent += delta

    def _count_received(self, delta: int) -> None:
        self._packets_received += delta

    def _make_gen_wake(self, index: int):
        """Per-generator wake: only the woken generator re-polls.

        A backpressure drain watch or control operation changes one
        generator's schedule; invalidating only its cache keeps the
        other generators sleeping through their silent stretches
        instead of re-stepping the whole population on every wake.
        """

        def wake() -> None:
            self._next_gen_poll = 0
            self._gen_next[index] = 0

        return wake

    def _attach_devices(self) -> None:
        """Map every device at the lowest free (bus, slot), in
        instantiation order: the control module, TGs, then TRs."""
        self.fabric.attach(self.control, bus=None)
        self.control.get_cycles = lambda: self.network.cycle
        self.control.get_sent = lambda: self.packets_sent
        self.control.get_received = lambda: self.packets_received
        self.control.is_done = lambda: self.is_done
        self.control.on_stat_reset = self.reset_statistics
        for generator in self.generators:
            device = TGDevice(f"tg{generator.node}", generator)
            self.fabric.attach(device, bus=None)
            self.tg_devices.append(device)
        for receptor in self.receptors:
            device = TRDevice(f"tr{receptor.node}", receptor)
            self.fabric.attach(device, bus=None)
            self.tr_devices.append(device)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the platform by one emulated clock cycle."""
        network = self.network
        now = network.cycle
        if now >= self._next_gen_poll:
            self.poll_generators(now)
        network.step()

    def poll_generators(self, now: int) -> None:
        """One generator round, rescheduling the next mandatory round.

        Generators whose model is contractually silent and whose NI
        queue cannot backpressure are skipped until the earliest cycle
        one of them could act (see
        :meth:`~repro.traffic.generator.TrafficGenerator.next_poll_cycle`);
        the engine's hot loop calls this only when that cycle arrives,
        and within a round only the generators actually due are
        stepped (``_gen_next`` holds each generator's own bound; any
        schedule change funnels through ``TrafficGenerator.wake`` and
        resets the caches).
        """
        nxt = None
        gen_next = self._gen_next
        k = 0
        for generator in self.generators:
            t = gen_next[k]
            if t <= now:
                generator.step(now)
                t = generator.next_poll_cycle(now + 1)
                gen_next[k] = t
            if nxt is None or t < nxt:
                nxt = t
            k += 1
        self._next_gen_poll = now + 1 if nxt is None else nxt

    def step_reference(self) -> None:
        """One cycle via the scan-everything reference dataflow.

        Identical semantics to :meth:`step` but driving
        :meth:`~repro.noc.network.Network.step_reference`; the parity
        tests and the kernel speed bench co-simulate the two paths.
        """
        network = self.network
        now = network.cycle
        if now >= self._next_gen_poll:
            self.poll_generators(now)
        network.step_reference()

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.step()

    @property
    def cycle(self) -> int:
        return self.network.cycle

    def idle_fast_forward(
        self, limit_cycle: Optional[int] = None
    ) -> int:
        """Jump over idle time when the fabric is quiescent.

        When no flit is queued, buffered or on a wire, nothing can
        happen until a traffic model's next emission: the platform
        jumps ``network.cycle`` straight there (clamped to
        ``limit_cycle``) instead of spinning empty cycles.  When no
        generator can poll before the horizon
        (:data:`~repro.traffic.generator.NEVER`), the jump goes to
        ``limit_cycle``.  Returns the number of cycles skipped (0 when
        the fabric is busy, an emission is due now, or no generator can
        poll before the horizon and no ``limit_cycle`` is given).  Cycle
        accuracy is preserved because every skipped cycle is one where
        all generator polls are contractually silent (see
        :meth:`~repro.traffic.base.TrafficModel.next_emission_cycle`)
        and the network state cannot change.  Disabled under
        ``sample_buffers``, whose per-cycle occupancy sampling must
        observe every idle cycle — that is the documented cost of
        per-cycle sampling, and the reason the windowed telemetry
        (:class:`repro.telemetry.windows.WindowedMetrics`) reads
        boundary snapshots instead: it keeps this fast-forward (and
        input parking) fully engaged, with the engine merely landing
        each jump on a window boundary so skipped windows emit as
        zero-delta records.
        """
        network = self.network
        if network.sample_buffers or network._in_flight_flits:
            return 0
        # With the fabric quiescent there is no backpressure, so the
        # next generator poll cycle *is* the next possible emission.
        target = self._next_gen_poll
        if target >= NEVER:
            if limit_cycle is None:
                return 0
            target = limit_cycle
        now = network.cycle
        if limit_cycle is not None and target > limit_cycle:
            target = limit_cycle
        if target <= now:
            return 0
        # Credits still returning upstream are the only scheduled
        # events a quiescent fabric can hold; settle the ones the jump
        # would skip over (invisible until the next flit moves).
        network._flush_credits_until(target)
        network.cycle = target
        return target - now

    # ------------------------------------------------------------------
    # Progress and aggregate statistics
    # ------------------------------------------------------------------
    @property
    def packets_sent(self) -> int:
        return self._packets_sent

    @property
    def packets_received(self) -> int:
        return self._packets_received

    @property
    def generators_done(self) -> bool:
        """True when every TG has exhausted its packet budget or trace."""
        for generator in self.generators:
            if generator.max_packets is None:
                model = generator.model
                exhausted = getattr(model, "exhausted", False)
                if not exhausted:
                    return False
            elif not generator.done:
                return False
        return True

    @property
    def is_done(self) -> bool:
        """All traffic emitted and the network fully drained."""
        return self.generators_done and self.network.is_drained

    def reset_statistics(self) -> None:
        """Clear all statistics without touching configuration."""
        self.network.reset_stats()
        for receptor in self.receptors:
            receptor.reset()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"EmulationPlatform({self.config.name!r},"
            f" switches={self.topology.n_switches},"
            f" tg={len(self.generators)}, tr={len(self.receptors)})"
        )


def build_platform(config: PlatformConfig) -> EmulationPlatform:
    """Platform compilation: elaborate a config into a platform.

    Validates that TGs/TRs sit on existing nodes, that at most one
    device occupies each node side, and that the routing tables cover
    every (generator, destination) pair before anything runs.
    """
    topology = config.resolve_topology()
    routing = config.resolve_routing(topology)
    network = Network(
        topology,
        routing,
        buffer_depth=config.buffer_depth,
        arbitration=config.arbitration,
        mode=config.switching,
        sample_buffers=config.sample_buffers,
    )
    if not config.tgs:
        raise ConfigError("platform has no traffic generators")
    seen_tg_nodes = set()
    generators: List[TrafficGenerator] = []
    for spec in config.tgs:
        if spec.node >= topology.n_nodes:
            raise ConfigError(
                f"TG node {spec.node} does not exist"
                f" (topology has {topology.n_nodes} nodes)"
            )
        if spec.node in seen_tg_nodes:
            raise ConfigError(
                f"two traffic generators on node {spec.node}"
            )
        seen_tg_nodes.add(spec.node)
        model = make_traffic_model(spec)
        generators.append(
            TrafficGenerator(
                spec.node,
                model,
                network.nis[spec.node],
                max_packets=spec.max_packets,
                queue_limit=spec.queue_limit,
            )
        )
    seen_tr_nodes = set()
    receptors: List[TrafficReceptor] = []
    for spec in config.trs:
        if spec.node >= topology.n_nodes:
            raise ConfigError(
                f"TR node {spec.node} does not exist"
                f" (topology has {topology.n_nodes} nodes)"
            )
        if spec.node in seen_tr_nodes:
            raise ConfigError(f"two receptors on node {spec.node}")
        seen_tr_nodes.add(spec.node)
        receptor = _build_receptor(spec, topology.n_nodes)
        receptor.attach(network.rx[spec.node])
        receptors.append(receptor)
    _validate_routes(network, config)
    _validate_deadlock_freedom(topology, routing, config)
    return EmulationPlatform(
        config, topology, network, generators, receptors
    )


def _validate_deadlock_freedom(topology, routing, config) -> None:
    """Refuse routing tables whose channel dependencies can cycle: the
    initialisation step of the real flow would load such a table into
    hardware and hang the emulation."""
    from repro.noc.deadlock import DeadlockError, assert_deadlock_free

    destinations = set()
    for spec in config.tgs:
        destinations.update(spec.destinations())
    if not destinations:
        return  # pure trace objects: destinations unknown statically
    try:
        assert_deadlock_free(topology, routing, sorted(destinations))
    except DeadlockError as exc:
        raise ConfigError(str(exc)) from exc


def _validate_routes(network: Network, config: PlatformConfig) -> None:
    """Check a route exists from every TG toward its destinations.

    Reads each TG switch's compiled dense route array, as the switch
    itself does per head flit.  A row without a ``None`` entry that
    spans every destination of the TG routes them all; only other
    rows are scanned destination by destination.
    """
    for spec in config.tgs:
        switch = network.topology.switch_of_node(spec.node)
        row = network.switches[switch]._route_dense
        destinations = spec.destinations()
        if (
            row is not None
            and destinations
            and 0 <= min(destinations)
            and max(destinations) < len(row)
            and None not in row
        ):
            continue
        missing = unrouted_destinations(
            network.routing, row, switch, destinations
        )
        if missing:
            raise ConfigError(
                f"routing has no entry at switch {switch} for"
                f" destination node {missing[0]} (TG on node"
                f" {spec.node})"
            )
