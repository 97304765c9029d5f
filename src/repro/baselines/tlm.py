"""Cycle-accurate transaction-level (SystemC-like) baseline.

The SystemC/MPARM row of the paper's speed table simulates the NoC
cycle-accurately but above RTL: processes run once per clock cycle and
communicate through channels with *request/update* semantics (a write
issued during the evaluate phase becomes visible after the update
phase), exactly the ``sc_fifo``/``sc_signal`` discipline of SystemC.
:class:`TlmKernel` is that scheduler; :class:`TlmPlatformSim` runs the
paper platform on it with one process per switch, injector and
collector, and one bounded FIFO channel per link.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.noc.flit import Flit, Packet
from repro.noc.routing import TableRouting
from repro.noc.topology import Topology


class TlmChannelError(RuntimeError):
    """Flow-control violation on a TLM channel."""


class TlmFifo:
    """A bounded FIFO channel with request/update semantics.

    ``nb_read``/``nb_write`` take effect at the end of the current
    delta (the kernel's update phase); capacity checks are performed
    against the pre-update state plus already-requested writes, so a
    producer can never overfill the channel within one cycle.
    """

    def __init__(self, capacity: int, name: str = "") -> None:
        if capacity < 1:
            raise ValueError("fifo capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        self._items: Deque[Flit] = deque()
        self._pending_writes: List[Flit] = []
        self._pending_reads = 0
        self.transactions = 0

    # -- evaluate-phase interface --------------------------------------
    def num_available(self) -> int:
        """Items readable this cycle (not counting pending reads)."""
        return len(self._items) - self._pending_reads

    def num_free(self) -> int:
        """Slots writable this cycle (counting pending writes)."""
        return self.capacity - len(self._items) - len(self._pending_writes)

    def peek(self) -> Optional[Flit]:
        index = self._pending_reads
        if index < len(self._items):
            return self._items[index]
        return None

    def nb_read(self) -> Optional[Flit]:
        """Request a read; returns the item that will be consumed."""
        item = self.peek()
        if item is not None:
            self._pending_reads += 1
        return item

    def nb_write(self, item: Flit) -> bool:
        """Request a write; False if the channel is full this cycle."""
        if self.num_free() <= 0:
            return False
        self._pending_writes.append(item)
        return True

    # -- update-phase interface ----------------------------------------
    def update(self) -> None:
        for _ in range(self._pending_reads):
            self._items.popleft()
            self.transactions += 1
        self._pending_reads = 0
        if self._pending_writes:
            self._items.extend(self._pending_writes)
            self.transactions += len(self._pending_writes)
            self._pending_writes.clear()
        if len(self._items) > self.capacity:
            raise TlmChannelError(
                f"channel {self.name or id(self)} overfilled:"
                f" {len(self._items)}/{self.capacity}"
            )

    def __len__(self) -> int:
        return len(self._items)


class TlmKernel:
    """Evaluate/update scheduler: all processes, then all channels."""

    def __init__(self) -> None:
        self.processes: List[Tuple[str, Callable[[], None]]] = []
        self.channels: List[TlmFifo] = []
        self.time = 0
        self.process_activations = 0

    def process(self, name: str, callback: Callable[[], None]) -> None:
        self.processes.append((name, callback))

    def channel(self, capacity: int, name: str = "") -> TlmFifo:
        fifo = TlmFifo(capacity, name)
        self.channels.append(fifo)
        return fifo

    def cycle(self) -> None:
        for _name, callback in self.processes:
            callback()
            self.process_activations += 1
        for channel in self.channels:
            channel.update()
        self.time += 1

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.cycle()


class _TlmSwitch:
    """One switch as a single cycle-accurate process."""

    def __init__(
        self,
        kernel: TlmKernel,
        switch_id: int,
        n_inputs: int,
        n_outputs: int,
        route_row: List[Optional[int]],
    ) -> None:
        self.kernel = kernel
        self.switch_id = switch_id
        self.n_inputs = n_inputs
        self.n_outputs = n_outputs
        self.route_row = route_row
        self.in_ch: List[Optional[TlmFifo]] = [None] * n_inputs
        self.out_ch: List[Optional[TlmFifo]] = [None] * n_outputs
        self._route_cache: List[int] = [-1] * n_inputs
        self._lock: List[int] = [-1] * n_outputs
        self._rr: List[int] = [0] * n_outputs
        self.flits_forwarded = 0
        kernel.process(f"sw{switch_id}", self._evaluate)

    def _desired(self, i: int) -> int:
        channel = self.in_ch[i]
        if channel is None or channel.num_available() == 0:
            return -1
        if self._route_cache[i] >= 0:
            return self._route_cache[i]
        head = channel.peek()
        assert head is not None
        row, dst = self.route_row, head.dst
        port = row[dst] if 0 <= dst < len(row) else None
        if port is None:
            raise TlmChannelError(
                f"TLM switch {self.switch_id}: no route for"
                f" destination {head.dst}"
            )
        return port

    def _evaluate(self) -> None:
        desires = [self._desired(i) for i in range(self.n_inputs)]
        for o in range(self.n_outputs):
            out = self.out_ch[o]
            if out is None or out.num_free() <= 0:
                continue
            lock = self._lock[o]
            if lock >= 0:
                winner = lock if desires[lock] == o else -1
            else:
                candidates = [
                    i
                    for i in range(self.n_inputs)
                    if desires[i] == o
                ]
                if not candidates:
                    continue
                pointer = self._rr[o]
                winner = min(
                    candidates,
                    key=lambda i: (i - pointer) % self.n_inputs,
                )
                self._rr[o] = (winner + 1) % self.n_inputs
            if winner < 0:
                continue
            in_channel = self.in_ch[winner]
            assert in_channel is not None
            flit = in_channel.nb_read()
            assert flit is not None
            out.nb_write(flit)
            self.flits_forwarded += 1
            if flit.is_tail:
                self._lock[o] = -1
                self._route_cache[winner] = -1
            elif flit.is_head:
                self._lock[o] = winner
                self._route_cache[winner] = o
            desires[winner] = -1  # one flit per input per cycle

    @property
    def buffered_flits(self) -> int:
        return sum(len(ch) for ch in self.in_ch if ch is not None)


class _TlmInjector:
    def __init__(
        self,
        kernel: TlmKernel,
        node: int,
        channel: TlmFifo,
        packets: Sequence[Packet],
    ) -> None:
        self.kernel = kernel
        self.node = node
        self.channel = channel
        self._schedule: Deque[Packet] = deque(
            sorted(packets, key=lambda p: p.injection_cycle)
        )
        self._flits: Deque[Flit] = deque()
        self.flits_injected = 0
        kernel.process(f"inj{node}", self._evaluate)

    def _evaluate(self) -> None:
        now = self.kernel.time
        while (
            self._schedule
            and self._schedule[0].injection_cycle <= now
        ):
            self._flits.extend(self._schedule.popleft().flits())
        if self._flits and self.channel.num_free() > 0:
            self.channel.nb_write(self._flits.popleft())
            self.flits_injected += 1

    @property
    def done(self) -> bool:
        return not self._schedule and not self._flits


class _TlmCollector:
    def __init__(
        self, kernel: TlmKernel, node: int, channel: TlmFifo
    ) -> None:
        self.node = node
        self.channel = channel
        self.flits_received = 0
        self.packets_received = 0
        kernel.process(f"col{node}", self._evaluate)

    def _evaluate(self) -> None:
        flit = self.channel.nb_read()
        if flit is not None:
            self.flits_received += 1
            if flit.is_tail:
                self.packets_received += 1


class TlmPlatformSim:
    """The paper platform on the SystemC-like kernel."""

    def __init__(
        self,
        topology: Topology,
        routing: TableRouting,
        packets_per_source: Dict[int, Sequence[Packet]],
        depth: int = 4,
    ) -> None:
        self.kernel = TlmKernel()
        self.topology = topology
        self.switches = [
            _TlmSwitch(
                self.kernel,
                s,
                topology.n_inputs(s),
                topology.n_outputs(s),
                routing.dense_row(s, topology.n_nodes),
            )
            for s in range(topology.n_switches)
        ]
        self.injectors: List[_TlmInjector] = []
        self.collectors: List[_TlmCollector] = []
        self._wire(packets_per_source, depth)

    def _wire(
        self, packets_per_source: Dict[int, Sequence[Packet]], depth: int
    ) -> None:
        topo = self.topology
        cursor: Dict[Tuple[int, int], int] = {}
        for a in range(topo.n_switches):
            for out_port, ep in enumerate(topo.switch_outputs[a]):
                if ep.kind == "switch":
                    b = ep.target
                    in_port = self._next_input(a, b, cursor)
                    channel = self.kernel.channel(
                        depth, f"l{a}.{out_port}->{b}.{in_port}"
                    )
                    self.switches[a].out_ch[out_port] = channel
                    self.switches[b].in_ch[in_port] = channel
                else:
                    node = ep.target
                    channel = self.kernel.channel(depth, f"ej{node}")
                    self.switches[a].out_ch[out_port] = channel
                    self.collectors.append(
                        _TlmCollector(self.kernel, node, channel)
                    )
        for node, sw in enumerate(topo.node_switch):
            in_port = next(
                p
                for p, src in enumerate(topo.switch_inputs[sw])
                if src.kind == "node" and src.source == node
            )
            channel = self.kernel.channel(depth, f"inj{node}")
            self.switches[sw].in_ch[in_port] = channel
            packets = packets_per_source.get(node, ())
            if packets:
                self.injectors.append(
                    _TlmInjector(self.kernel, node, channel, packets)
                )

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
        raise TlmChannelError(f"no input port on {b} for link {a}->{b}")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, cycles: int) -> None:
        self.kernel.run(cycles)

    def run_until_drained(self, max_cycles: int = 1_000_000) -> int:
        start = self.kernel.time
        while self.kernel.time - start < max_cycles:
            self.run(32)
            if self.is_drained:
                return self.kernel.time - start
        raise TlmChannelError(
            f"TLM platform failed to drain within {max_cycles} cycles"
        )

    @property
    def is_drained(self) -> bool:
        if any(not inj.done for inj in self.injectors):
            return False
        return not any(
            len(ch) for ch in self.kernel.channels
        )

    @property
    def packets_received(self) -> int:
        return sum(c.packets_received for c in self.collectors)

    @property
    def flits_received(self) -> int:
        return sum(c.flits_received for c in self.collectors)

    @property
    def cycle(self) -> int:
        return self.kernel.time
