"""Online fault application and repair.

The :class:`FaultInjector` drives a :class:`FaultSchedule` against a
live :class:`~repro.core.platform.EmulationPlatform`.  The engine calls
:meth:`tick` at the top of every cycle the injector asked to see
(``tick`` returns the next such cycle), before the network's credit
phase, so every settlement the application performs runs through
``now - 1`` — exactly the cycles already emulated.

Everything the injector mutates goes through shared component code
(:meth:`Network.abort_packets`, the parking wake lists, the dense
route recompilation), so the event-driven kernel and the
``step_reference`` oracle stay bit-identical under faults — the parity
suite in ``tests/faults`` pins this.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Set, Tuple

from repro.core.errors import UnroutableError
from repro.faults.report import (
    FaultEventRecord,
    FaultReport,
    FaultWindow,
)
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.noc.deadlock import is_deadlock_free
from repro.noc.routing import (
    build_updown_tables,
    compile_dense_route_table,
    unrouted_destinations,
)
from repro.traffic.generator import NEVER
from repro.traffic.rng import derive_stream_seed


class FaultInjector:
    """Applies a fault schedule to a live platform, cycle-accurately."""

    #: Not checkpointed as values (see :mod:`repro.checkpoint.walker`):
    #: the schedule (captured whole) and the platform; checkpoint code
    #: maps the dead pairs, saved credit hooks, flaky windows and
    #: recovery probes itself.
    __rebuilt__ = (
        "schedule", "platform", "_events", "_dead_pairs",
        "_saved_credit", "_flaky", "_awaiting",
    )

    def __init__(self, schedule: FaultSchedule, platform) -> None:
        self.schedule = schedule
        self.platform = platform
        network = platform.network
        topo = platform.topology
        self._events: Tuple[FaultEvent, ...] = schedule.events
        self._next_idx = 0
        #: Directed switch pairs currently avoided by repair.
        self._dead_pairs: Set[Tuple[int, int]] = set()
        #: Saved ``_input_credit`` entries of inputs whose feeding link
        #: is down (keyed by (switch_id, input port)); restored on
        #: ``link_up``.  While the entry is None, downstream pops
        #: schedule no credit toward the dead upstream port.
        self._saved_credit: Dict[Tuple[int, int], tuple] = {}
        #: Active flaky windows: (event, links, threshold, record).
        self._flaky: List[tuple] = []
        #: Events whose fabric-level recovery (first delivery after
        #: application) is still unobserved: (record, packets_then).
        self._awaiting: List[tuple] = []
        self.report = FaultReport()
        self._boundary_cycle = 0
        self._boundary_packets = 0
        self._boundary_label = "pre-fault"
        schedule.check_targets(network.switch_links, topo.n_switches)

    # ------------------------------------------------------------------
    # Engine interface
    # ------------------------------------------------------------------
    @property
    def faulted(self) -> bool:
        """True once at least one event has been applied."""
        return bool(self.report.events) or bool(self._flaky)

    def begin(self, now: int) -> int:
        """Open the pre-fault window; return the first tick cycle."""
        self._boundary_cycle = now
        self._boundary_packets = self.platform.packets_received
        return self._wake_cycle(now)

    def tick(self, now: int) -> int:
        """Apply everything due at ``now``; return the next tick cycle.

        Cheap and idempotent when nothing is due, so lockstep parity
        harnesses may call it every cycle.
        """
        events = self._events
        while (
            self._next_idx < len(events)
            and events[self._next_idx].cycle <= now
        ):
            event = events[self._next_idx]
            self._next_idx += 1
            self._apply(event, now)
        if self._flaky:
            self._flaky_tick(now)
        if self._awaiting:
            received = self.platform.packets_received
            still = []
            for record, packets_then in self._awaiting:
                if received > packets_then:
                    record.recovery_cycles = now - record.cycle
                else:
                    still.append((record, packets_then))
            self._awaiting = still
        return self._wake_cycle(now)

    def finalize(
        self,
        now: int,
        degraded: bool = False,
        reason: Optional[str] = None,
    ) -> FaultReport:
        """Close the last throughput window and return the report."""
        self._cut_window(now, "end")
        self.report.degraded = degraded
        self.report.degraded_reason = reason
        return self.report

    def _wake_cycle(self, now: int) -> int:
        """Next cycle this injector must run before.

        A flaky window ticks every cycle.  A recovery watch waits for
        the next delivered packet, so it ticks every cycle while flits
        are in the fabric.  On an empty fabric no packet can arrive
        before the generators next poll: the watch sleeps until then,
        or until the next event.  A delivery its tick has not seen yet
        (a resumed run derives this cycle from the one before the cut)
        still wakes it at ``now + 1``.
        """
        if self._flaky:
            return now + 1
        wake = NEVER
        if self._next_idx < len(self._events):
            wake = self._events[self._next_idx].cycle
        if self._awaiting:
            platform = self.platform
            if platform.network._in_flight_flits:
                return now + 1
            received = platform.packets_received
            if any(received > then for _record, then in self._awaiting):
                return now + 1
            poll = max(now + 1, platform._next_gen_poll)
            if poll < wake:
                wake = poll
        return wake

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def _cut_window(self, now: int, next_label: str) -> None:
        received = self.platform.packets_received
        if now > self._boundary_cycle:
            self.report.windows.append(
                FaultWindow(
                    label=self._boundary_label,
                    start=self._boundary_cycle,
                    end=now,
                    packets_received=received - self._boundary_packets,
                )
            )
        self._boundary_cycle = now
        self._boundary_packets = received
        self._boundary_label = next_label

    def _apply(self, event: FaultEvent, now: int) -> None:
        tracer = self.platform.network._tracer
        if tracer is not None:
            # Emitted before the abort events the application below
            # produces; the tracer's canonical intra-cycle order keeps
            # fault -> aborts -> dataflow regardless of call order.
            detail = (
                f"switch {event.switch}"
                if event.switch is not None
                else f"{event.a}->{event.b}"
            )
            tracer.fault(now, event.kind, detail)
        if event.kind == "link_down":
            self._apply_link_down(event, now)
        elif event.kind == "link_up":
            self._apply_link_up(event, now)
        elif event.kind == "flaky":
            self._apply_flaky(event, now)
        else:
            self._apply_switch_down(event, now)

    def _record(
        self, record: FaultEventRecord, now: int, watch_recovery: bool
    ) -> None:
        self._cut_window(now, f"after {record.kind}@{now}")
        self.report.events.append(record)
        self.report.dropped_flits += record.dropped_flits
        self.report.dropped_packets += record.dropped_packets
        if watch_recovery:
            self._awaiting.append(
                (record, self.platform.packets_received)
            )

    def _abort(self, pids, now: int, record: FaultEventRecord) -> None:
        if not pids:
            return
        network = self.platform.network
        dropped, per_link, affected = network.abort_packets(pids, now)
        record.dropped_flits += dropped
        record.dropped_packets += len(affected)
        drops = self.report.per_link_drops
        for name, n in per_link.items():
            drops[name] = drops.get(name, 0) + n

    def _take_link_down(self, a: int, b: int, now: int) -> set:
        """Mark every ``a -> b`` link dead; return the cut-set pids.

        Collects the packets that can no longer complete — flits on
        the dying wire plus the wormhole that holds the upstream
        channel open — zeroes the upstream credits, purges credits in
        flight toward the dead output, and disables the downstream
        input's credit scheduling so later pops there do not resupply
        a dead port.
        """
        network = self.platform.network
        pids = set()
        for link in network.switch_links[(a, b)]:
            for slot in network._flit_wheel:
                for wired, flit in slot:
                    if wired is link:
                        pids.add(flit.packet.pid)
            up, out = network.link_upstream[link]
            if out.lock_pid is not None:
                pids.add(out.lock_pid)
            link.down = True
            out.credits = 0
            for slot in network._credit_wheel:
                if slot:
                    slot[:] = [t for t in slot if t[0] is not out]
            down_sw, in_port, _buf = link.dst
            key = (down_sw.switch_id, in_port)
            self._saved_credit[key] = down_sw._input_credit[in_port]
            down_sw._input_credit[in_port] = None
        self._dead_pairs.add((a, b))
        return pids

    def _apply_link_down(self, event: FaultEvent, now: int) -> None:
        record = FaultEventRecord(
            cycle=now,
            kind="link_down",
            detail=f"{event.a}->{event.b}",
        )
        pids = self._take_link_down(event.a, event.b, now)
        self._abort(pids, now, record)
        if self.schedule.repair:
            self._repair(now, record)
        self._record(record, now, watch_recovery=True)

    def _apply_link_up(self, event: FaultEvent, now: int) -> None:
        network = self.platform.network
        record = FaultEventRecord(
            cycle=now,
            kind="link_up",
            detail=f"{event.a}->{event.b}",
        )
        for link in network.switch_links[(event.a, event.b)]:
            link.down = False
            up, out = network.link_upstream[link]
            down_sw, in_port, buf = link.dst
            key = (down_sw.switch_id, in_port)
            down_sw._input_credit[in_port] = self._saved_credit.pop(
                key
            )
            # Re-baseline: the wire is empty and no credit is in
            # flight for this port, so free slots are exactly the
            # downstream buffer's headroom.
            out.credits = buf.capacity - len(buf._fifo)
            if out.credits > 0 and out.credit_waiters:
                up._credit_wake_port(out, now)
        self._dead_pairs.discard((event.a, event.b))
        if self.schedule.repair:
            self._repair(now, record)
        self._record(record, now, watch_recovery=False)

    def _apply_flaky(self, event: FaultEvent, now: int) -> None:
        network = self.platform.network
        record = FaultEventRecord(
            cycle=now,
            kind="flaky",
            detail=(
                f"{event.a}->{event.b} until {event.until}"
                f" p={event.drop_p}"
            ),
        )
        links = list(network.switch_links[(event.a, event.b)])
        threshold = int(event.drop_p * 2**32)
        self._flaky.append((event, links, threshold, record))
        self._record(record, now, watch_recovery=True)

    def _flaky_tick(self, now: int) -> None:
        network = self.platform.network
        slot = network._flit_wheel[now % network._wheel_size]
        still = []
        for entry in self._flaky:
            event, links, threshold, record = entry
            if now >= event.until:
                self._cut_window(
                    now, f"after flaky {event.a}->{event.b}@{now}"
                )
                continue
            if threshold and slot:
                pids = set()
                for link, flit in slot:
                    if link in links and not link.down:
                        draw = derive_stream_seed(
                            event.seed, flit.packet.pid, flit.seq
                        )
                        if draw < threshold:
                            pids.add(flit.packet.pid)
                self._abort(pids, now, record)
                if pids:
                    self.report.dropped_flits = sum(
                        e.dropped_flits for e in self.report.events
                    )
                    self.report.dropped_packets = sum(
                        e.dropped_packets for e in self.report.events
                    )
            still.append(entry)
        self._flaky = still

    def _apply_switch_down(self, event: FaultEvent, now: int) -> None:
        platform = self.platform
        network = platform.network
        topo = platform.topology
        s = event.switch
        sw = network.switches[s]
        dead_nodes = set(topo.nodes_on_switch(s))
        record = FaultEventRecord(
            cycle=now,
            kind="switch_down",
            detail=(
                f"switch {s}"
                + (f" (nodes {sorted(dead_nodes)})" if dead_nodes else "")
            ),
        )
        # Generators on the dead switch stop first (settling their
        # backpressure accounting), so the orphan check below only
        # sees flows that still want to send.
        for gen in platform.generators:
            if gen.node in dead_nodes and gen.enabled:
                gen.disable()
        # Take down every inter-switch link touching s, collecting the
        # packets cut on each.
        pids = set()
        for (a, b) in list(network.switch_links):
            if (
                (a == s or b == s)
                and (a, b) not in self._dead_pairs
            ):
                pids |= self._take_link_down(a, b, now)
        # Injection and ejection links of the dead switch's nodes.
        for node in dead_nodes:
            ni = network.nis[node]
            # Everything still queued behind the dead injection link
            # can never leave, whatever its destination.
            for flit in ni._flits:
                pids.add(flit.packet.pid)
            link = ni._link
            if link is not None and not link.down:
                link.down = True
                for slot in network._flit_wheel:
                    for wired, flit in slot:
                        if wired is link:
                            pids.add(flit.packet.pid)
                ni._credits = 0
                for slot in network._credit_wheel:
                    if slot:
                        slot[:] = [
                            t
                            for t in slot
                            if not (t[0] is None and t[1] is ni)
                        ]
        for out in sw._outputs:
            if out.lock_pid is not None:
                pids.add(out.lock_pid)
            link = out.link
            if link is not None and not link.down:
                # Ejection link (inter-switch ones are down already).
                link.down = True
                for slot in network._flit_wheel:
                    for wired, flit in slot:
                        if wired is link:
                            pids.add(flit.packet.pid)
                out.credits = 0
        # Everything buffered inside the dead switch dies with it.
        for buf in sw.inputs:
            for flit in buf._fifo:
                pids.add(flit.packet.pid)
        # Traffic destined to the dead nodes can never arrive: abort
        # it wherever it is (queues, buffers, wires, reassembly).
        if dead_nodes:
            for ni in network.nis:
                for flit in ni._flits:
                    if flit.dst in dead_nodes:
                        pids.add(flit.packet.pid)
            for other in network.switches:
                for buf in other.inputs:
                    for flit in buf._fifo:
                        if flit.dst in dead_nodes:
                            pids.add(flit.packet.pid)
            for slot in network._flit_wheel:
                for _link, flit in slot:
                    if flit.dst in dead_nodes:
                        pids.add(flit.packet.pid)
            for node in dead_nodes:
                pids.update(network.rx[node]._partial.keys())
        self._abort(pids, now, record)
        if self.schedule.repair:
            self._repair(now, record)
        self._record(record, now, watch_recovery=True)

    # ------------------------------------------------------------------
    # Online repair
    # ------------------------------------------------------------------
    def repaired_routes(self):
        """Vetted tables for the surviving fabric.

        The configured routing built around every dead pair (itself
        once none is left), re-vetted for deadlock freedom against the
        TGs' destinations, falling back to up*/down*, which is
        deadlock-free by construction: the repaired shortest/multipath
        tables can close a channel cycle the originals did not.
        Nothing is installed until :meth:`install_routes`.
        """
        topo = self.platform.topology
        avoid = frozenset(self._dead_pairs)
        routing = self.platform.config.resolve_routing(topo, avoid)
        destinations = set()
        for spec in self.platform.config.tgs:
            destinations.update(spec.destinations())
        if destinations and not is_deadlock_free(
            topo, routing, sorted(destinations)
        ):
            routing = build_updown_tables(topo, avoid_links=avoid)
        return routing

    def install_routes(self, routing) -> None:
        """Hot-swap the routing of :meth:`repaired_routes` into every
        switch, each indexing its own row of the new tables."""
        network = self.platform.network
        network.routing = routing
        for sw in network.switches:
            sw.routing = routing
            sw._compile_routes(network.topology.n_nodes)

    def _stranded_pids(self, routing) -> set:
        """Packets whose head can no longer reach its destination.

        Only head flits consult the tables — committed wormhole bodies
        follow their channel locks — and table builders are
        path-complete (an entry at a switch implies entries along the
        whole path), so one lookup per head position suffices.  Heads
        already ejected (partial reassembly) stream the rest of their
        packet along held locks and need no route.
        """
        network = self.platform.network
        topo = self.platform.topology
        stranded = set()
        for ni in network.nis:
            if not ni._flits:
                continue
            switch = topo.switch_of_node(ni.node)
            for flit in ni._flits:
                if flit.is_head and not routing.ports_for(
                    switch, flit.dst
                ):
                    stranded.add(flit.packet.pid)
        for sw in network.switches:
            sid = sw.switch_id
            for buf in sw.inputs:
                for flit in buf._fifo:
                    if flit.is_head and not routing.ports_for(
                        sid, flit.dst
                    ):
                        stranded.add(flit.packet.pid)
        for slot in network._flit_wheel:
            for link, flit in slot:
                if not flit.is_head:
                    continue
                dst = link.dst
                if dst is not None and not routing.ports_for(
                    dst[0].switch_id, flit.dst
                ):
                    stranded.add(flit.packet.pid)
        return stranded

    def _repair(self, now: int, record: FaultEventRecord) -> None:
        """Rebuild, vet, and hot-swap the routing tables.

        Raises :class:`UnroutableError` when the surviving fabric
        cannot carry an active flow (a partitioning fault).
        """
        t0 = perf_counter()  # repro: allow[wall-clock] repair_wall_seconds is a reported repair-cost diagnostic
        platform = self.platform
        network = platform.network
        topo = platform.topology
        routing = self.repaired_routes()
        # Partition check: every still-active flow must have a route.
        node_dsts = {
            spec.node: spec.destinations() for spec in platform.config.tgs
        }
        orphans = []
        for gen in platform.generators:
            if not gen.enabled or gen.done:
                continue
            switch = topo.switch_of_node(gen.node)
            row = compile_dense_route_table(routing, switch, topo.n_nodes)
            for dst in unrouted_destinations(
                routing, row, switch, node_dsts.get(gen.node, ())
            ):
                orphans.append((gen.node, dst))
        if orphans:
            flows = ", ".join(f"{a}->{b}" for a, b in orphans)
            raise UnroutableError(
                f"fault at cycle {now} partitions the fabric: no"
                f" surviving route for active flow(s) {flows}",
                flows=orphans,
            )
        # In-flight packets the new tables cannot deliver are aborted
        # (their flows are done or disabled, or they were cut from a
        # salvageable position).
        self._abort(self._stranded_pids(routing), now, record)
        # Hot-swap the tables and drop every *uncommitted* cached route
        # decision (committed = the input holds the output's wormhole
        # lock; its body flits must keep following the old path).
        # Parked inputs among them re-arm through the normal wake path
        # and re-route next cycle.
        self.install_routes(routing)
        for sw in network.switches:
            route_outs = sw._input_out
            parked = sw._in_parked
            for i in range(len(route_outs)):
                out = route_outs[i]
                if out is not None and out.lock != i:
                    sw._input_route[i] = None
                    route_outs[i] = None
                    if parked[i]:
                        sw._wake_input(i, now - 1)
        record.repaired = True
        record.repair_wall_seconds += perf_counter() - t0  # repro: allow[wall-clock] repair_wall_seconds is a reported repair-cost diagnostic
