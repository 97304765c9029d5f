"""RTL-granularity model of the emulation platform.

The Verilog/ModelSim row of the paper's speed table simulates the NoC
at register-transfer level: every FIFO slot, pointer, request, grant
and lock is an individual signal, combinational logic re-evaluates
through delta cycles, and all state advances on clock-edge processes.
:class:`RtlSwitch` is that decomposition of the platform switch, built
on :mod:`repro.baselines.eventsim`; :class:`RtlPlatformSim` wires six
of them into the paper topology with packet injectors and ejection
collectors.

Abstraction note: the data buses carry flit records instead of 34
individual bit signals, but every *control* wire (valid, ready,
request, grant, lock, pointers, counters) is a real signal with real
events — the per-cycle event count, which is what makes RTL simulation
slow, is therefore representative.

Flow control uses a registered ready/valid handshake whose ready view
is up to three cycles stale, so the RTL switch keeps deeper FIFOs
(``depth >= 6``) and advertises ready only while ``count < depth - 4``;
a hard overflow check in the sequential process enforces safety.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.baselines.eventsim import EventSimulator, Signal, SimulationError
from repro.noc.flit import Flit, Packet
from repro.noc.routing import TableRouting
from repro.noc.topology import Topology

#: Minimum FIFO depth that absorbs the handshake round trip.
MIN_RTL_DEPTH = 6

#: Ready is advertised while the FIFO holds fewer than depth-4 flits.
READY_MARGIN = 4


class RtlSwitch:
    """One platform switch at RTL granularity."""

    def __init__(
        self,
        sim: EventSimulator,
        switch_id: int,
        n_inputs: int,
        n_outputs: int,
        depth: int,
        route_row: List[Optional[int]],
        clock: Signal,
    ) -> None:
        if depth < MIN_RTL_DEPTH:
            raise ValueError(
                f"RTL switch needs depth >= {MIN_RTL_DEPTH} to absorb"
                f" the registered handshake, got {depth}"
            )
        self.sim = sim
        self.switch_id = switch_id
        self.n_inputs = n_inputs
        self.n_outputs = n_outputs
        self.depth = depth
        self.route_row = route_row
        s = sim.signal
        tag = f"sw{switch_id}"
        # Input-side registers.
        self.slots: List[List[Signal]] = [
            [s(f"{tag}.in{i}.slot{d}", None) for d in range(depth)]
            for i in range(n_inputs)
        ]
        self.count = [s(f"{tag}.in{i}.count", 0) for i in range(n_inputs)]
        self.rd = [s(f"{tag}.in{i}.rd", 0) for i in range(n_inputs)]
        self.wr = [s(f"{tag}.in{i}.wr", 0) for i in range(n_inputs)]
        self.in_valid = [
            s(f"{tag}.in{i}.valid", 0) for i in range(n_inputs)
        ]
        self.in_data = [
            s(f"{tag}.in{i}.data", None) for i in range(n_inputs)
        ]
        self.in_route = [
            s(f"{tag}.in{i}.route", -1) for i in range(n_inputs)
        ]
        self.in_ready = [
            s(f"{tag}.in{i}.ready", 1) for i in range(n_inputs)
        ]
        # Combinational nets.
        self.head = [s(f"{tag}.in{i}.head", None) for i in range(n_inputs)]
        self.req = [s(f"{tag}.in{i}.req", -1) for i in range(n_inputs)]
        self.grant = [s(f"{tag}.out{o}.grant", -1) for o in range(n_outputs)]
        # Output-side registers.
        self.out_valid = [
            s(f"{tag}.out{o}.valid", 0) for o in range(n_outputs)
        ]
        self.out_data = [
            s(f"{tag}.out{o}.data", None) for o in range(n_outputs)
        ]
        self.out_ok = [s(f"{tag}.out{o}.ok", 1) for o in range(n_outputs)]
        self.lock = [s(f"{tag}.out{o}.lock", -1) for o in range(n_outputs)]
        self.rr = [s(f"{tag}.out{o}.rr", 0) for o in range(n_outputs)]
        # Statistics.
        self.flits_forwarded = 0
        self._clock = clock
        self._build_processes(clock)

    # ------------------------------------------------------------------
    # Process construction
    # ------------------------------------------------------------------
    def _build_processes(self, clock: Signal) -> None:
        sim = self.sim
        tag = f"sw{self.switch_id}"
        for i in range(self.n_inputs):
            sim.process(
                f"{tag}.head{i}",
                lambda _i=i: self._comb_head(_i),
                sensitive_to=[self.rd[i], self.count[i]] + self.slots[i],
            )
            sim.process(
                f"{tag}.req{i}",
                lambda _i=i: self._comb_req(_i),
                sensitive_to=[self.head[i], self.in_route[i]],
            )
            sim.process(
                f"{tag}.ready{i}",
                lambda _i=i: self._comb_ready(_i),
                sensitive_to=[self.count[i]],
            )
        for o in range(self.n_outputs):
            sim.process(
                f"{tag}.grant{o}",
                lambda _o=o: self._comb_grant(_o),
                sensitive_to=(
                    self.req
                    + [self.lock[o], self.rr[o], self.out_ok[o]]
                ),
            )
        sim.process(f"{tag}.seq", self._seq, sensitive_to=[clock])

    # ------------------------------------------------------------------
    # Combinational logic
    # ------------------------------------------------------------------
    def _comb_head(self, i: int) -> None:
        if self.count[i].value > 0:
            head = self.slots[i][self.rd[i].value].value
        else:
            head = None
        self.sim.post(self.head[i], head)

    def _comb_req(self, i: int) -> None:
        head: Optional[Flit] = self.head[i].value
        if head is None:
            self.sim.post(self.req[i], -1)
            return
        cached = self.in_route[i].value
        if cached >= 0:
            self.sim.post(self.req[i], cached)
            return
        row, dst = self.route_row, head.dst
        port = row[dst] if 0 <= dst < len(row) else None
        if port is None:
            raise SimulationError(
                f"RTL switch {self.switch_id}: no route for destination"
                f" {head.dst}"
            )
        self.sim.post(self.req[i], port)

    def _comb_ready(self, i: int) -> None:
        ready = 1 if self.count[i].value < self.depth - READY_MARGIN else 0
        self.sim.post(self.in_ready[i], ready)

    def _comb_grant(self, o: int) -> None:
        if not self.out_ok[o].value:
            self.sim.post(self.grant[o], -1)
            return
        lock = self.lock[o].value
        if lock >= 0:
            winner = lock if self.req[lock].value == o else -1
            self.sim.post(self.grant[o], winner)
            return
        candidates = [
            i for i in range(self.n_inputs) if self.req[i].value == o
        ]
        if not candidates:
            self.sim.post(self.grant[o], -1)
            return
        pointer = self.rr[o].value
        winner = min(
            candidates,
            key=lambda i: (i - pointer) % self.n_inputs,
        )
        self.sim.post(self.grant[o], winner)

    # ------------------------------------------------------------------
    # Sequential logic (clock rising edge)
    # ------------------------------------------------------------------
    def _seq(self) -> None:
        # Sensitive to both clock edges; state advances on rising only.
        if not self._clock.value:
            return
        sim = self.sim
        pops = [0] * self.n_inputs
        pushes = [0] * self.n_inputs
        # Output stage: move granted head flits onto the output regs.
        for o in range(self.n_outputs):
            g = self.grant[o].value
            if g < 0 or self.count[g].value == 0 or pops[g]:
                sim.post(self.out_valid[o], 0)
                continue
            flit: Flit = self.slots[g][self.rd[g].value].value
            pops[g] = 1
            sim.post(self.rd[g], (self.rd[g].value + 1) % self.depth)
            sim.post(self.out_valid[o], 1)
            sim.post(self.out_data[o], flit)
            self.flits_forwarded += 1
            if flit.is_tail:
                sim.post(self.lock[o], -1)
                sim.post(self.in_route[g], -1)
            elif flit.is_head:
                sim.post(self.lock[o], g)
                sim.post(self.in_route[g], o)
            sim.post(self.rr[o], (g + 1) % self.n_inputs)
        # Input stage: accept arriving flits.
        for i in range(self.n_inputs):
            if not self.in_valid[i].value:
                continue
            occupancy = self.count[i].value - pops[i]
            if occupancy >= self.depth:
                raise SimulationError(
                    f"RTL switch {self.switch_id} input {i} FIFO"
                    f" overflow: the handshake failed"
                )
            flit = self.in_data[i].value
            sim.post(self.slots[i][self.wr[i].value], flit)
            sim.post(self.wr[i], (self.wr[i].value + 1) % self.depth)
            pushes[i] = 1
        # Commit occupancy updates once per input.
        for i in range(self.n_inputs):
            delta = pushes[i] - pops[i]
            if delta:
                sim.post(self.count[i], self.count[i].value + delta)

    @property
    def buffered_flits(self) -> int:
        return sum(c.value for c in self.count)


class _Injector:
    """Clocked packet injector (the RTL testbench's TG)."""

    def __init__(
        self,
        sim: EventSimulator,
        node: int,
        switch: RtlSwitch,
        in_port: int,
        packets: Sequence[Packet],
        clock: Signal,
    ) -> None:
        self.sim = sim
        self.node = node
        self.switch = switch
        self.in_port = in_port
        self._schedule: Deque[Packet] = deque(
            sorted(packets, key=lambda p: p.injection_cycle)
        )
        self._flits: Deque[Flit] = deque()
        self.flits_injected = 0
        self._clock = clock
        sim.process(f"inj{node}", self._tick, sensitive_to=[clock])

    def _tick(self) -> None:
        # Sensitive to both clock edges; act on the rising edge only.
        if not self._clock.value:
            return
        now = self.sim.time
        while (
            self._schedule
            and self._schedule[0].injection_cycle <= now
        ):
            self._flits.extend(self._schedule.popleft().flits())
        valid = self.switch.in_valid[self.in_port]
        data = self.switch.in_data[self.in_port]
        count = self.switch.count[self.in_port].value
        if self._flits and count < self.switch.depth - 2:
            self.sim.post(valid, 1)
            self.sim.post(data, self._flits.popleft())
            self.flits_injected += 1
        else:
            self.sim.post(valid, 0)

    @property
    def done(self) -> bool:
        return not self._schedule and not self._flits


class _Collector:
    """Clocked ejection-port monitor (the RTL testbench's TR)."""

    def __init__(
        self,
        sim: EventSimulator,
        node: int,
        switch: RtlSwitch,
        out_port: int,
        clock: Signal,
    ) -> None:
        self.sim = sim
        self.node = node
        self.switch = switch
        self.out_port = out_port
        self.flits_received = 0
        self.packets_received = 0
        sim.process(f"col{node}", self._tick, sensitive_to=[clock])
        self._clock = clock

    def _tick(self) -> None:
        if not self._clock.value:
            return
        if self.switch.out_valid[self.out_port].value:
            flit: Flit = self.switch.out_data[self.out_port].value
            self.flits_received += 1
            if flit.is_tail:
                self.packets_received += 1


class RtlPlatformSim:
    """The paper platform simulated at RTL granularity.

    Parameters
    ----------
    topology:
        Switch graph (typically ``paper_topology()``).
    routing:
        A :class:`~repro.noc.routing.TableRouting` instance (the RTL
        route logic is a per-switch lookup table).
    packets_per_source:
        node -> list of packets to inject (with ``injection_cycle``
        schedules).
    depth:
        FIFO depth of the RTL switches (>= 6).
    """

    def __init__(
        self,
        topology: Topology,
        routing: TableRouting,
        packets_per_source: Dict[int, Sequence[Packet]],
        depth: int = 8,
    ) -> None:
        self.sim = EventSimulator()
        self.clock = self.sim.signal("clk", 0)
        self.topology = topology
        self.switches: List[RtlSwitch] = [
            RtlSwitch(
                self.sim,
                s,
                topology.n_inputs(s),
                topology.n_outputs(s),
                depth,
                routing.dense_row(s, topology.n_nodes),
                self.clock,
            )
            for s in range(topology.n_switches)
        ]
        self.injectors: List[_Injector] = []
        self.collectors: List[_Collector] = []
        self._wire_links()
        self._wire_nodes(packets_per_source)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def _wire_links(self) -> None:
        topo = self.topology
        cursor: Dict[Tuple[int, int], int] = {}
        for a in range(topo.n_switches):
            for out_port, ep in enumerate(topo.switch_outputs[a]):
                if ep.kind != "switch":
                    continue
                b = ep.target
                in_port = self._next_input(a, b, cursor)
                self._link_process(a, out_port, b, in_port)

    def _next_input(
        self, a: int, b: int, cursor: Dict[Tuple[int, int], int]
    ) -> int:
        start = cursor.get((a, b), 0)
        seen = 0
        for port, src in enumerate(self.topology.switch_inputs[b]):
            if src.kind == "switch" and src.source == a:
                if seen == start:
                    cursor[(a, b)] = start + 1
                    return port
                seen += 1
        raise SimulationError(f"no input port on {b} for link {a}->{b}")

    def _link_process(
        self, a: int, out_port: int, b: int, in_port: int
    ) -> None:
        up, down = self.switches[a], self.switches[b]
        sim = self.sim
        clock = self.clock

        def tick() -> None:
            if not clock.value:
                return
            sim.post(down.in_valid[in_port], up.out_valid[out_port].value)
            sim.post(down.in_data[in_port], up.out_data[out_port].value)
            sim.post(up.out_ok[out_port], down.in_ready[in_port].value)

        sim.process(f"link{a}.{out_port}->{b}.{in_port}", tick, [clock])

    def _wire_nodes(
        self, packets_per_source: Dict[int, Sequence[Packet]]
    ) -> None:
        topo = self.topology
        for node, sw in enumerate(topo.node_switch):
            in_port = next(
                p
                for p, src in enumerate(topo.switch_inputs[sw])
                if src.kind == "node" and src.source == node
            )
            out_port = topo.output_port_to_node(sw, node)
            packets = packets_per_source.get(node, ())
            if packets:
                injector = _Injector(
                    self.sim,
                    node,
                    self.switches[sw],
                    in_port,
                    packets,
                    self.clock,
                )
                self.injectors.append(injector)
            collector = _Collector(
                self.sim, node, self.switches[sw], out_port, self.clock
            )
            self.collectors.append(collector)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, cycles: int) -> None:
        self.sim.run_cycles(self.clock, cycles)

    def run_until_drained(self, max_cycles: int = 100_000) -> int:
        """Run until all traffic is delivered; return cycles used."""
        start = self.sim.time
        while self.sim.time - start < max_cycles:
            self.run(32)
            if self.is_drained:
                return self.sim.time - start
        raise SimulationError(
            f"RTL platform failed to drain within {max_cycles} cycles"
        )

    @property
    def is_drained(self) -> bool:
        if any(not inj.done for inj in self.injectors):
            return False
        if any(sw.buffered_flits for sw in self.switches):
            return False
        return not any(
            sw.out_valid[o].value
            for sw in self.switches
            for o in range(sw.n_outputs)
        )

    @property
    def packets_received(self) -> int:
        return sum(c.packets_received for c in self.collectors)

    @property
    def flits_received(self) -> int:
        return sum(c.flits_received for c in self.collectors)

    @property
    def cycle(self) -> int:
        return self.sim.time
