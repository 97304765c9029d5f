"""Network assembly and the per-cycle dataflow.

A :class:`Network` elaborates a :class:`~repro.noc.topology.Topology`
into concrete switches, links and network interfaces, wires the credit
paths, and exposes a single :meth:`Network.step` that advances the whole
fabric by one clock cycle.  This is the "network of switches [that] can
emulate any NoC packet-switching intercommunication scheme" at the heart
of the hardware platform (Slide 13); the emulation engine in
``repro.core`` drives it together with the traffic devices.

:meth:`Network.step` is *event-driven* down to input-port granularity:
the network keeps a list of switches with movable inputs and a list of
network interfaces with queued flits, each switch keeps a scan list of
exactly those inputs, and flits/credits in flight live in arrival-cycle
delivery wheels — so a cycle costs time proportional to the inputs
that can actually move rather than to the fabric size.  Components
feed these structures through wake-up hooks: a switch notifies when an
input becomes movable (new head, credit return on a starved port,
wormhole-channel release, store-and-forward completion), an NI on
:meth:`~repro.noc.ni.NetworkInterface.offer`.  The original
scan-everything dataflow survives as :meth:`Network.step_reference`;
both paths produce bit-identical cycle behaviour (see
``tests/integration/test_kernel_parity.py``).

Each per-cycle rule has one out-of-line form — the switch traversal
:func:`~repro.noc.switch.traverse_all`, ``Switch.receive`` and
:meth:`Network._eject` behind each link's ``sink``,
:meth:`~repro.noc.ni.NetworkInterface.inject`, and
:meth:`Network._drain_credit_slot` — which the reference kernel and
traced runs use.  :meth:`Network.step` additionally inlines the credit,
delivery and injection phases for untraced speed; the parity suites pin
those inline copies to the out-of-line forms.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.noc.buffer import BufferFullError
from repro.noc.flit import Flit, Packet
from repro.noc.link import Link
from repro.noc.ni import NetworkInterface, ReassemblyBuffer
from repro.noc.routing import RoutingError, TableRouting
from repro.noc.switch import (
    Switch,
    SwitchConfig,
    SwitchingMode,
    traverse_all,
)
from repro.noc.topology import Topology

#: Cycles :meth:`Network.drain` steps before it reports a deadlock.
DRAIN_CYCLES = 1_000_000


def format_parked_report(entries: List[dict]) -> str:
    """Render :meth:`Network.parked_report` for an error message."""
    if not entries:
        return "no parked inputs"
    parts: List[str] = []
    for e in entries:
        if e["kind"] == "ni":
            parts.append(
                f"ni{e['node']} awaits an injection credit on"
                f" {e['output']} since cycle {e['since']}"
                f" (pid {e['pid']})"
            )
            continue
        what = {
            "credit": f"a credit on {e['output']}",
            "lock": f"the wormhole channel of {e['output']}",
            "sf_partial": "the rest of a store-and-forward packet",
        }[e["reason"]]
        parts.append(
            f"sw{e['switch']}.in{e['input']} awaits {what} since"
            f" cycle {e['since']} (pid {e['pid']})"
        )
    return f"{len(parts)} parked: " + "; ".join(parts)


class Network:
    """An elaborated NoC: switches + links + network interfaces.

    Parameters
    ----------
    topology:
        Switch graph and NI attachment points.
    routing:
        Routing function shared by all switches (table-based in the
        hardware platform).
    buffer_depth:
        Per-input FIFO depth of every switch, in flits.
    arbitration:
        Arbitration policy name (see ``repro.noc.arbiter``).
    mode:
        Wormhole (default) or store-and-forward switching.
    sample_buffers:
        When True, every input buffer records its occupancy each cycle
        (needed by buffer-utilisation reports; costs simulation speed).
    """

    def __init__(
        self,
        topology: Topology,
        routing: TableRouting,
        buffer_depth: int = SwitchConfig.buffer_depth,
        arbitration: str = SwitchConfig.arbitration,
        mode: SwitchingMode = SwitchingMode.WORMHOLE,
        sample_buffers: bool = False,
    ) -> None:
        topology.validate()
        self.topology = topology
        self.routing = routing
        self.sample_buffers = sample_buffers
        self.switches: List[Switch] = [
            Switch(
                s,
                SwitchConfig(
                    n_inputs=topology.n_inputs(s),
                    n_outputs=topology.n_outputs(s),
                    buffer_depth=buffer_depth,
                    arbitration=arbitration,
                    mode=mode,
                ),
                routing,
            )
            for s in range(topology.n_switches)
        ]
        self.nis: List[NetworkInterface] = [
            NetworkInterface(node) for node in range(topology.n_nodes)
        ]
        self.rx: List[ReassemblyBuffer] = [
            ReassemblyBuffer(node) for node in range(topology.n_nodes)
        ]
        self.links: List[Link] = []
        #: Map from a directed switch pair (a, b) to the links carrying
        #: a -> b traffic, for link-load monitoring (Slide 19's 90% links).
        self.switch_links: Dict[Tuple[int, int], List[Link]] = {}
        #: Map from a link to its upstream feeder: ``(switch, output
        #: port object)`` for inter-switch and ejection links, ``(None,
        #: ni)`` for injection links.  Fault injection walks this to
        #: find the credit counter a dropped wire flit must refund.
        self.link_upstream: Dict[Link, tuple] = {}
        #: Map from ``(switch_id, input_port)`` to the link feeding it,
        #: for the instant credit refund of purged buffer slots.
        self._input_feed: Dict[Tuple[int, int], Link] = {}
        # Per-link downstream flit sink: called with (flit, now).
        self._flit_sinks: List[Callable[[Flit, int], None]] = []
        # Credit-return registrations deferred until the delivery
        # wheels exist: (downstream switch, input port, link, wheel
        # entry).  The entry is structural — (output port object,
        # owning switch) for a switch upstream, (None, NI) for an
        # injection link — so the credit phase settles each return
        # with one attribute add, and the downstream switch's fused
        # hop appends it to the wheel without a callback frame.
        self._pending_credit_hooks: List[tuple] = []
        # Event-driven scheduling state.  The active lists hold the
        # switches/NIs with *actionable* work — a switch is listed
        # while its per-input scan list is non-empty, i.e. while at
        # least one input is neither idle nor parked on its
        # unblocking event — deduplicated by per-component flags,
        # iterated and compacted as plain lists.
        # Flits and credits in flight live in the delivery *wheels*:
        # ring buffers indexed by arrival cycle modulo ``wheel_size``
        # (one slot past the largest link delay).  A send appends
        # ``(link, flit)`` to the arrival slot; a buffer pop appends
        # the upstream credit target likewise.  Each cycle drains
        # exactly its own slot — no per-link queues to scan, no event
        # heap to re-key.  Both structures are fed by component hooks,
        # so they stay consistent no matter which step path
        # (event-driven or reference) drives the fabric.
        # ``_in_flight_flits`` counts every flit between an NI queue
        # and reassembly, incremented on offer and decremented on
        # ejection.
        self._active_switches: List[Switch] = []
        self._active_nis: List[NetworkInterface] = []
        self._in_flight_flits = 0
        # Opt-in flit tracer (see repro.telemetry.trace).  None keeps
        # the hot paths exactly as fast as before: the delivery and
        # injection phases test the attribute once per *cycle with
        # traffic*, not per flit, and when set run the out-of-line
        # forms (link sinks, ``NetworkInterface.inject``) with the
        # tracer hooks around them.
        self._tracer = None
        self._wire()
        self._max_delay = max(
            (link.delay for link in self.links), default=1
        )
        size = self._wheel_size = self._max_delay + 1
        self._flit_wheel: List[List[tuple]] = [
            [] for _ in range(size)
        ]
        self._credit_wheel: List[List[tuple]] = [
            [] for _ in range(size)
        ]
        # Per-phase slot views of the two wheels, indexed by delay:
        # ``_fphase[k][d]`` is the flit-wheel slot a send at a cycle
        # with ``now % size == k`` and delay ``d`` lands in, and
        # ``_cphase`` the same for credit returns.  So a hop appends
        # to ``slots[delay]`` with no modulo.  Slots are emptied in
        # place, never replaced, so the views stay valid.
        self._fphase = [
            [self._flit_wheel[(k + d) % size] for d in range(size)]
            for k in range(size)
        ]
        self._cphase = [
            [self._credit_wheel[(k + d) % size] for d in range(size)]
            for k in range(size)
        ]
        for link, sink in zip(self.links, self._flit_sinks):
            link.wheel = self._flit_wheel
            link.wheel_size = size
            link.sink = sink
        for down, in_port, link, entry in self._pending_credit_hooks:
            down._connect_input_credit(in_port, link.delay, entry)
        for switch in self.switches:
            switch._cwheel = self._credit_wheel
            switch._fwheel = self._flit_wheel
            switch._wheel_size = size
            switch._wake = self._make_switch_wake(switch)
            switch._clock = self._now
            switch._compile_routes(topology.n_nodes)
        for ni in self.nis:
            ni._notify_offer = self._make_offer_hook(ni)
            ni._wake = self._make_ni_wake(ni)
            ni._clock = self._now
        self.cycle = 0

    def _now(self) -> int:
        """Current cycle, handed to components as their clock.

        During a step this is the cycle being processed; between steps
        it is the next unprocessed cycle, so bulk settlement through
        ``_now() - 1`` covers exactly the cycles already emulated.
        """
        return self.cycle

    def _make_switch_wake(self, switch: Switch) -> Callable[[], None]:
        active = self._active_switches

        def wake() -> None:
            if not switch._active:
                switch._active = True
                active.append(switch)

        return wake

    def _make_ni_wake(
        self, ni: NetworkInterface
    ) -> Callable[[], None]:
        active = self._active_nis

        def wake() -> None:
            if not ni._active:
                ni._active = True
                active.append(ni)

        return wake

    def _make_offer_hook(
        self, ni: NetworkInterface
    ) -> Callable[[Packet], None]:
        active = self._active_nis
        n_nodes = self.topology.n_nodes

        def offered(packet: Packet) -> None:
            # Once per packet, so the per-hop route lookup never meets
            # a destination outside the switches' rows.
            if not 0 <= packet.dst < n_nodes:
                raise RoutingError(
                    f"packet from node {packet.src} is addressed to node"
                    f" {packet.dst}, but the fabric has nodes 0 to"
                    f" {n_nodes - 1}"
                )
            self._in_flight_flits += packet.length
            if not ni._active:
                ni._active = True
                active.append(ni)

        return offered

    # ------------------------------------------------------------------
    # Elaboration
    # ------------------------------------------------------------------
    def _wire(self) -> None:
        topo = self.topology
        # Pair each switch->switch output endpoint with the matching
        # input port on the target switch, in registration order (the
        # k-th "from a" input source on b pairs with the k-th "to b"
        # output endpoint on a).
        input_cursor: Dict[Tuple[int, int], int] = {}

        def next_input_port(a: int, b: int) -> int:
            """Input port index on ``b`` fed by the next ``a -> b`` edge."""
            start = input_cursor.get((a, b), 0)
            seen = 0
            for port, src in enumerate(topo.switch_inputs[b]):
                if src.kind == "switch" and src.source == a:
                    if seen == start:
                        input_cursor[(a, b)] = start + 1
                        return port
                    seen += 1
            raise RuntimeError(
                f"no unpaired input port on switch {b} for link"
                f" {a} -> {b}"
            )

        for a in range(topo.n_switches):
            for out_port, ep in enumerate(topo.switch_outputs[a]):
                if ep.kind == "switch":
                    b = ep.target
                    in_port = next_input_port(a, b)
                    link = Link(
                        delay=ep.delay,
                        name=f"sw{a}:out{out_port}->sw{b}:in{in_port}",
                    )
                    self._add_switch_to_switch(
                        link, a, out_port, b, in_port
                    )
                    self.switch_links.setdefault((a, b), []).append(link)
                else:
                    node = ep.target
                    link = Link(
                        delay=ep.delay,
                        name=f"sw{a}:out{out_port}->node{node}",
                    )
                    self._add_ejection(link, a, out_port, node)

        for node, sw in enumerate(topo.node_switch):
            in_port = self._node_input_port(sw, node)
            link = Link(delay=1, name=f"node{node}->sw{sw}:in{in_port}")
            self._add_injection(link, node, sw, in_port)

        for switch in self.switches:
            switch.check_wired()

    def _node_input_port(self, switch: int, node: int) -> int:
        for port, src in enumerate(self.topology.switch_inputs[switch]):
            if src.kind == "node" and src.source == node:
                return port
        raise RuntimeError(
            f"node {node} has no input port on switch {switch}"
        )

    def _add_switch_to_switch(
        self, link: Link, a: int, out_port: int, b: int, in_port: int
    ) -> None:
        up, down = self.switches[a], self.switches[b]
        up.connect_output(
            out_port,
            link.send,
            credits=down.inputs[in_port].capacity,
            link=link,
        )
        self.links.append(link)
        # partial() binds are C-level: no extra Python frame per event.
        self._pending_credit_hooks.append(
            (down, in_port, link, (up._outputs[out_port], up))
        )
        link.dst = (down, in_port, down.inputs[in_port])
        self.link_upstream[link] = (up, up._outputs[out_port])
        self._input_feed[(b, in_port)] = link
        self._flit_sinks.append(partial(down.receive, in_port))

    def _add_ejection(
        self, link: Link, a: int, out_port: int, node: int
    ) -> None:
        up = self.switches[a]
        rx = self.rx[node]
        # A traffic receptor consumes one flit per cycle and never
        # backpressures, hence infinite credits on ejection ports
        # (whose links consequently never schedule a credit return).
        up.connect_output(out_port, link.send, credits=None, link=link)
        self.links.append(link)
        link.rx = rx
        self.link_upstream[link] = (up, up._outputs[out_port])
        self._flit_sinks.append(partial(self._eject, rx))

    def _eject(
        self, rx: ReassemblyBuffer, flit: Flit, now: int
    ) -> Optional[Packet]:
        """Hand a flit to reassembly, retiring it from the in-flight
        count; return the packet it completed, if any."""
        self._in_flight_flits -= 1
        return rx.receive(flit, now)

    def _add_injection(
        self, link: Link, node: int, switch: int, in_port: int
    ) -> None:
        ni = self.nis[node]
        down = self.switches[switch]
        ni.connect(link, credits=down.inputs[in_port].capacity)
        self.links.append(link)
        self._pending_credit_hooks.append(
            (down, in_port, link, (None, ni))
        )
        link.dst = (down, in_port, down.inputs[in_port])
        self.link_upstream[link] = (None, ni)
        self._input_feed[(switch, in_port)] = link
        self._flit_sinks.append(partial(down.receive, in_port))

    # ------------------------------------------------------------------
    # Per-cycle dataflow
    # ------------------------------------------------------------------
    def step(self) -> int:
        """Advance the fabric by one clock cycle; return flits moved.

        Phase order within the cycle:

        1. credits complete their upstream return trip,
        2. switches arbitrate and move flits onto links,
        3. links deliver flits that finished their flight,
        4. network interfaces inject queued flits.

        A flit delivered in phase 3 therefore traverses its next switch
        no earlier than the following cycle, giving the registered
        one-cycle-per-hop behaviour of the hardware switches.

        Each phase visits only components with *actionable* work:
        switches/NIs from the active lists, delivery-wheel slots for
        the wire traffic.  Iteration order within a phase is free —
        components of one phase never interact with each other inside
        a cycle (sends land on links, never directly on another
        switch).  Retirement is deferred and lazy: a component found
        workless is dropped during the phase's in-place compaction.

        Blocking is handled at *input* granularity: an input whose
        head cannot move parks inside the switch (see
        :func:`~repro.noc.switch.traverse_all`) and is woken only
        by the event that can change its outcome — a credit return on
        its starved output port, the release of the wormhole channel
        it waits on, a flit into its empty buffer, or an arrival
        completing its store-and-forward packet — with its per-cycle
        stall statistics settled in bulk on wake-up.  A switch whose
        scan list empties leaves the network's active list entirely;
        an NI whose inject stalled on credits parks the same way.
        Parked inputs cost zero Python per cycle, and a *partially*
        blocked switch keeps streaming its movable inputs without
        rescanning the blocked ones — at saturation this is the
        headroom activity-proportional scheduling alone cannot reach.
        """
        now = self.cycle
        phase = now % self._wheel_size
        slot = self._credit_wheel[phase]
        if slot:
            for out, target in slot:
                if out is not None:
                    # Inter-switch link: settle the return straight
                    # into the upstream output port's counter.
                    out.credits += 1
                    if out.credit_waiters:
                        target._credit_wake_port(out, now)
                else:
                    # Injection link: the NI's credit counter.
                    target._credits += 1
                    if target._parked:
                        target._credit_unpark()
            del slot[:]
        moved = 0
        active = self._active_switches
        if active:
            # One fused loop over every switch with movable inputs; a
            # switch whose scan list empties (idle, or every input
            # parked on its unblocking event) retires from the list.
            moved, retire = traverse_all(
                active, now, self._cphase[phase], self._fphase[phase]
            )
            if retire:
                active[:] = [sw for sw in active if sw._active]
        slot = self._flit_wheel[phase]
        if slot and self._tracer is not None:
            self._drain_flit_slot(now)
        elif slot:
            # Fused delivery: links feeding a switch input push the
            # flit straight into the buffer (Switch.receive inlined),
            # activating the input and waking the switch as needed;
            # ejection links hand it to reassembly (_eject inlined).
            active = self._active_switches
            for link, flit in slot:
                dst = link.dst
                if dst is None:
                    self._in_flight_flits -= 1
                    link.rx.receive(flit, now)
                    continue
                sw, port, buf = dst
                fifo = buf._fifo
                if len(fifo) >= buf.capacity:
                    raise BufferFullError(
                        f"push into full buffer {buf.name or id(buf)} "
                        f"(capacity {buf.capacity})"
                    )
                fifo.append(flit)
                counts = buf._pid_counts
                if counts is not None:
                    pid = flit.packet.pid
                    counts[pid] = counts.get(pid, 0) + 1
                buf.total_pushes += 1
                depth = len(fifo)
                if depth > buf.peak_occupancy:
                    buf.peak_occupancy = depth
                if depth == 1:
                    # Previously empty input: a new head to route.
                    if not sw._in_listed[port]:
                        sw._in_listed[port] = True
                        sw._in_active[port] = True
                        sw._scan.append(sw._in_tuples[port])
                    if not sw._active:
                        sw._active = True
                        active.append(sw)
                elif (
                    sw._sf_mode
                    and sw._in_parked[port]
                    and sw._in_park_head[port] is None
                ):
                    # Store-and-forward: the arrival may complete the
                    # waiting head packet.
                    sw._unpark_input(port)
            del slot[:]
        active = self._active_nis
        tracer = self._tracer
        if active and tracer is not None:
            # Traced: NetworkInterface.inject out of line, plus one
            # event per flit put on the wire.
            retire = False
            for ni in active:
                flits = ni._flits
                if flits:
                    head = flits[0]
                    if ni.inject(now):
                        tracer.inject(now, ni, head)
                    elif ni._credits <= 0:
                        # Credit-starved (inject ticked the stall): park
                        # as the inlined loop below does.
                        ni._active = False
                        ni._park(now)
                        retire = True
                        continue
                if not flits:
                    ni._active = False
                    retire = True
            if retire:
                active[:] = [ni for ni in active if ni._active]
        elif active:
            # NetworkInterface.inject inlined: one flit on the wire per
            # NI per cycle is a hot path at saturation.  NIs on the
            # active list are never parked, and network-wired
            # injection links always share the global flit wheel.
            fslots = self._fphase[phase]
            retire = False
            for ni in active:
                flits = ni._flits
                if not flits:
                    ni._active = False
                    retire = True
                    continue
                if ni._credits <= 0:
                    # Credit-starved: stall, then park until the
                    # injection link returns a credit (or a fresh
                    # offer arrives).
                    ni._stall_cycles += 1
                    flits[0].stall_cycles += 1
                    ni._active = False
                    ni._park(now)
                    retire = True
                    continue
                flit = flits.popleft()
                if flit.is_head:
                    flit.packet.wire_entry_cycle = now
                link = ni._link
                if link._last_send_cycle == now:
                    link.send(flit, now)  # raises the protocol error
                link._last_send_cycle = now
                fslots[link.delay].append((link, flit))
                link.flits_carried += 1
                ni._credits -= 1
                ni.injected_flits += 1
                if flit.is_tail:
                    ni.injected_packets += 1
                level = ni._drain_level
                if level is not None and len(flits) == level - 1:
                    # The source queue just dropped below the
                    # generator's backpressure limit: fire the
                    # one-shot drain watch.
                    callback = ni._on_drain
                    ni._drain_level = None
                    ni._on_drain = None
                    callback(now)
                if not flits:
                    ni._active = False
                    retire = True
            if retire:
                active[:] = [ni for ni in active if ni._active]
        if self.sample_buffers:
            for switch in self.switches:
                switch.sample_buffers()
        self.cycle = now + 1
        return moved

    def step_reference(self) -> int:
        """One cycle via the original scan-everything dataflow.

        Kept as the parity oracle for :meth:`step`: it visits every
        switch and NI each cycle regardless of activity, so it is
        size-proportional but trivially correct.  The wake-up hooks and
        the in-flight counter are maintained by the components
        themselves, and state parked by the event-driven path
        self-heals — :meth:`~repro.noc.switch.Switch.traverse_reference`
        settles and re-arms every parked input before its full scan,
        and a parked NI settles inside ``inject`` — so the bookkeeping
        stays consistent even when the two paths alternate on one
        fabric.
        """
        now = self.cycle
        self._drain_credit_slot(now)
        moved = 0
        active = self._active_switches
        compact = False
        for switch in self.switches:
            moved += switch.traverse_reference(now)
            if switch._scan:
                if not switch._active:
                    switch._active = True
                    active.append(switch)
            else:
                # The traverse cleared ``_active`` itself, possibly for
                # a switch its self-heal had just woken onto the list.
                compact = True
        if compact:
            active[:] = [sw for sw in active if sw._active]
        self._drain_flit_slot(now)
        active_nis = self._active_nis
        compact = False
        tracer = self._tracer
        for ni in self.nis:
            if ni._flits:
                if tracer is None:
                    ni.inject(now)
                else:
                    head = ni._flits[0]
                    if ni.inject(now):
                        tracer.inject(now, ni, head)
            if ni._flits:
                if not ni._active:
                    ni._active = True
                    active_nis.append(ni)
            elif ni._active:
                ni._active = False
                compact = True
        if compact:
            active_nis[:] = [ni for ni in active_nis if ni._active]
        if self.sample_buffers:
            for switch in self.switches:
                switch.sample_buffers()
        self.cycle = now + 1
        return moved

    def _drain_credit_slot(self, now: int) -> None:
        """Deliver the credits arriving at ``now`` (reference path).

        The out-of-line form of the credit phase :meth:`step` inlines;
        the parity suites compare the two, parked-wake conditions
        included.
        """
        slot = self._credit_wheel[now % self._wheel_size]
        if slot:
            for out, target in slot:
                if out is not None:
                    out.credits += 1
                    if out.credit_waiters:
                        target._credit_wake_port(out, now)
                else:
                    target._credits += 1
                    if target._parked:
                        target._credit_unpark()
            del slot[:]

    def _drain_flit_slot(self, now: int) -> None:
        """Deliver the flits arriving at ``now`` through each link's
        ``sink`` (``Switch.receive`` or :meth:`_eject`).

        The delivery phase of the reference kernel, and of the event
        kernel while a tracer is attached: then every flit also reports
        a ``hop`` into a switch input, or an ``eject`` into reassembly
        followed by ``packet`` when it completes its packet.
        """
        slot = self._flit_wheel[now % self._wheel_size]
        if not slot:
            return
        tracer = self._tracer
        for link, flit in slot:
            if tracer is None:
                link.sink(flit, now)
            elif link.rx is None:
                tracer.hop(now, link, flit)
                link.sink(flit, now)
            else:
                tracer.eject(now, link, flit)
                packet = link.sink(flit, now)
                if packet is not None:
                    tracer.packet_done(now, link.rx, packet)
        del slot[:]

    # ------------------------------------------------------------------
    # Flit tracing (see repro.telemetry.trace)
    # ------------------------------------------------------------------
    def attach_tracer(self, tracer) -> None:
        """Route flit delivery/injection through ``tracer`` hooks.

        Both step paths report the same events; the tracer buffers one
        cycle at a time and flushes it in a canonical order, so the
        event streams of the two kernels are bit-identical even though
        their intra-cycle iteration orders differ.
        """
        if self._tracer is not None:
            raise RuntimeError("a tracer is already attached")
        self._tracer = tracer

    def detach_tracer(self):
        """Remove and return the attached tracer (None if none)."""
        tracer = self._tracer
        self._tracer = None
        return tracer

    def run(self, cycles: int) -> None:
        """Advance the fabric by ``cycles`` clock cycles."""
        for _ in range(cycles):
            self.step()

    # ------------------------------------------------------------------
    # Injection/ejection conveniences and drain detection
    # ------------------------------------------------------------------
    def offer(self, packet: Packet) -> None:
        """Queue a packet at the NI of its source node."""
        self.nis[packet.src].offer(packet)

    @property
    def in_flight_flits(self) -> int:
        """Flits anywhere between an NI queue and reassembly (O(1))."""
        return self._in_flight_flits

    def scan_in_flight_flits(self) -> int:
        """The in-flight count recomputed by scanning every component.

        Parity oracle for the incremental counter; equal to
        :attr:`in_flight_flits` unless the bookkeeping has a bug.
        """
        total = sum(ni.pending_flits for ni in self.nis)
        total += sum(len(buf) for sw in self.switches for buf in sw.inputs)
        total += sum(len(slot) for slot in self._flit_wheel)
        return total

    def _flush_credits_until(self, target: int) -> None:
        """Deliver every credit arriving in ``(cycle, target]`` now.

        Idle fast-forward helper: with the fabric quiescent nothing
        can observe a credit counter until the next flit moves (at or
        after ``target``), so early delivery is invisible — and with
        no flit buffered anywhere no input or NI is parked, so no
        wake-up is due.
        Credits scheduled beyond ``target`` stay in their wheel slots,
        which remain correctly indexed after the jump (every pending
        arrival lies within one wheel revolution of the clock).

        Offset 0 matters: a credit can be due exactly at the current
        (not yet processed) cycle, whose slot only the skipped-over
        step would have drained.
        """
        size = self._wheel_size
        now = self.cycle
        wheel = self._credit_wheel
        for offset in range(size):
            if now + offset > target:
                break
            slot = wheel[(now + offset) % size]
            if slot:
                for out, target_obj in slot:
                    if out is not None:
                        out.credits += 1
                    else:
                        target_obj._credits += 1
                del slot[:]

    @property
    def quiescent(self) -> bool:
        """True when no flit is queued, buffered or on a wire.

        Credits may still be returning upstream; they carry no
        observable state change until the next flit moves, so a
        quiescent fabric can fast-forward over idle cycles.
        """
        return self._in_flight_flits == 0

    @property
    def is_drained(self) -> bool:
        """True when no flit is queued, buffered, in flight or partial."""
        if self._in_flight_flits:
            return False
        return all(rx.partial_packets == 0 for rx in self.rx)

    def drain(self) -> int:
        """Step until drained; return cycles spent.  Raises after
        :data:`DRAIN_CYCLES` cycles."""
        start = self.cycle
        while not self.is_drained:
            if self.cycle - start > DRAIN_CYCLES:
                raise RuntimeError(
                    f"network failed to drain within {DRAIN_CYCLES} cycles"
                    f" ({self.in_flight_flits} flits in flight —"
                    f" possible deadlock);"
                    f" {format_parked_report(self.parked_report())}"
                )
            self.step()
        return self.cycle - start

    # ------------------------------------------------------------------
    # Fault support
    # ------------------------------------------------------------------
    def abort_packets(self, pids, now: int):
        """Remove every trace of the packets in ``pids`` from the fabric.

        Shared abort path of the fault injector, called between cycles
        (before the credit phase of cycle ``now``) by whichever kernel
        drives the fabric — the same code runs under :meth:`step` and
        :meth:`step_reference`, which is what keeps the two
        bit-identical under faults.  The abort models a reconfiguration
        master flushing state out of the fabric, so freed buffer slots
        refund their upstream credit instantly (the cycle-accurate
        credit wire only carries credits of normally-popped flits);
        flits dropped from a wire refund theirs too unless the carrying
        or feeding link is itself down, in which case ``link_up``
        re-baselines the credit counter wholesale.

        Returns ``(dropped_flits, per_link_drops, affected_pids)``:
        flits removed from queues/buffers/wires, wire drops keyed by
        link name, and the pids that actually lost state.
        """
        dropped = 0
        per_link: Dict[str, int] = {}
        affected = set()

        # 1. Release wormhole channels held by aborted packets: their
        # tails can no longer arrive, so waiters would starve forever.
        for sw in self.switches:
            route_outs = sw._input_out
            for out in sw._outputs:
                pid = out.lock_pid
                if pid is None or pid not in pids:
                    continue
                affected.add(pid)
                holder = out.lock
                out.lock = None
                out.lock_pid = None
                if holder is not None:
                    sw._input_route[holder] = None
                    route_outs[holder] = None
                lw = out.lock_waiters
                if lw:
                    parked = sw._in_parked
                    for j in lw:
                        if parked[j]:
                            sw._wake_input(j, now - 1)
                    del lw[:]

        # 2. Purge switch input buffers, waking parked inputs (their
        # awaited event may never fire now) and refunding the freed
        # slots upstream.  Purges are not pops: the buffer's pop base
        # drops with its length, so ``total_pops`` holds, and the
        # credit wire stays untouched.
        for sw in self.switches:
            inputs = sw.inputs
            for i in range(len(inputs)):
                buf = inputs[i]
                fifo = buf._fifo
                if not fifo:
                    continue
                keep = [f for f in fifo if f.packet.pid not in pids]
                n = len(fifo) - len(keep)
                if not n:
                    continue
                for f in fifo:
                    if f.packet.pid in pids:
                        affected.add(f.packet.pid)
                head_purged = fifo[0].packet.pid in pids
                fifo.clear()
                fifo.extend(keep)
                counts = buf._pid_counts
                if counts is not None:
                    for pid in [p for p in counts if p in pids]:
                        del counts[pid]
                buf._pops_base -= n
                self._in_flight_flits -= n
                dropped += n
                if sw._in_parked[i]:
                    sw._wake_input(i, now - 1)
                if head_purged:
                    sw._input_route[i] = None
                    sw._input_out[i] = None
                feed = self._input_feed.get((sw.switch_id, i))
                if feed is not None and not feed.down:
                    up, target = self.link_upstream[feed]
                    if up is not None:
                        target.credits += n
                        if target.credit_waiters:
                            up._credit_wake_port(target, now)
                    else:
                        target._credits += n
                        if target._parked:
                            target._credit_unpark()

        # 3. Drop in-flight wire flits from every wheel slot.
        for slot in self._flit_wheel:
            if not slot:
                continue
            keep = []
            for entry in slot:
                link, flit = entry
                pid = flit.packet.pid
                if pid not in pids:
                    keep.append(entry)
                    continue
                affected.add(pid)
                link.flits_dropped += 1
                name = link.name or repr(link)
                per_link[name] = per_link.get(name, 0) + 1
                self._in_flight_flits -= 1
                dropped += 1
                if not link.down:
                    up, target = self.link_upstream[link]
                    if up is not None:
                        if not target.infinite_credits:
                            target.credits += 1
                            if target.credit_waiters:
                                up._credit_wake_port(target, now)
                    else:
                        target._credits += 1
                        if target._parked:
                            target._credit_unpark()
            if len(keep) != len(slot):
                slot[:] = keep

        # 4. NI source queues.
        for ni in self.nis:
            for f in ni._flits:
                if f.packet.pid in pids:
                    affected.add(f.packet.pid)
            n = ni.purge_pids(pids, now)
            if n:
                self._in_flight_flits -= n
                dropped += n

        # 5. Partially reassembled packets (their already-ejected flits
        # were retired from the in-flight count on ejection).
        for rx in self.rx:
            affected.update(rx.abort_packets(pids))

        tracer = self._tracer
        if tracer is not None:
            # Sorted for canonical event order: the affected set is
            # accumulated in fabric-walk order, which differs between
            # kernels.
            for pid in sorted(affected):
                tracer.abort(now, pid)
        return dropped, per_link, affected

    def parked_report(self) -> List[dict]:
        """Snapshot of every parked input/NI and its awaited event.

        Diagnostic companion of the parking machinery: stagnation and
        drain-timeout errors embed this so a never-woken parked input
        is attributable instead of a silent hang.  ``since`` is the
        cycle the parked stretch last settled through.
        """
        entries: List[dict] = []
        for sw in self.switches:
            parked = sw._in_parked
            for i, is_parked in enumerate(parked):
                if not is_parked:
                    continue
                if sw._in_park_head[i] is None:
                    reason = "sf_partial"
                elif sw._in_park_credit[i]:
                    reason = "credit"
                else:
                    reason = "lock"
                out = sw._input_out[i]
                link = out.link if out is not None else None
                fifo = sw.inputs[i]._fifo
                entries.append(
                    {
                        "kind": "switch_input",
                        "switch": sw.switch_id,
                        "input": i,
                        "reason": reason,
                        "output": getattr(link, "name", None),
                        "since": sw._in_park_cycle[i],
                        "pid": fifo[0].packet.pid if fifo else None,
                    }
                )
        for ni in self.nis:
            if ni._parked:
                entries.append(
                    {
                        "kind": "ni",
                        "node": ni.node,
                        "reason": "credit",
                        "output": getattr(ni._link, "name", None),
                        "since": ni._park_cycle,
                        "pid": (
                            ni._flits[0].packet.pid
                            if ni._flits
                            else None
                        ),
                    }
                )
        return entries

    # ------------------------------------------------------------------
    # Monitoring
    # ------------------------------------------------------------------
    def link_between(self, a: int, b: int) -> Link:
        """The (first) inter-switch link ``a -> b``."""
        try:
            return self.switch_links[(a, b)][0]
        except (KeyError, IndexError):
            raise KeyError(f"no link between switches {a} and {b}") from None

    def link_loads(self) -> Dict[Tuple[int, int], float]:
        """Utilisation of every inter-switch link over its stats window.

        The window runs from the link's last :meth:`reset_stats` (cycle
        0 if never reset) to the current cycle, so mid-run statistics
        resets yield the post-reset utilisation rather than diluting
        ``busy_cycles`` over the whole run.
        """
        loads: Dict[Tuple[int, int], float] = {}
        for pair, links in self.switch_links.items():
            for link in links:
                elapsed = max(1, self.cycle - link.stats_since)
                loads[pair] = max(
                    loads.get(pair, 0.0), link.utilization(elapsed)
                )
        return loads

    @property
    def total_blocked_flit_cycles(self) -> int:
        """Network-wide head-of-line blocking events (congestion input)."""
        return sum(sw.blocked_flit_cycles for sw in self.switches)

    def reset_stats(self) -> None:
        for sw in self.switches:
            sw.reset_stats()
        for link in self.links:
            up, out = self.link_upstream[link]
            if up is not None:
                # ``flits_sent`` outlives the link's stats window.
                out.sent_base += link.flits_carried
            link.reset_stats(now=self.cycle)
        for ni in self.nis:
            ni.reset_stats()
        for rx in self.rx:
            rx.reset_stats()
