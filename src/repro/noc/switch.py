"""The parameterisable switch.

The hardware platform emulates "any NoC packet-switching
intercommunication scheme" by instantiating a network of switches whose
three parameters the paper calls out on Slide 6: **number of inputs**,
**number of outputs** and **size of buffers**.  This module models one
such switch at cycle granularity:

* one bounded flit FIFO per input port (input-buffered switch),
* per-output arbitration (round-robin by default),
* credit-based flow control toward each downstream buffer,
* wormhole switching (a HEAD flit locks an output port for its packet
  until the TAIL passes) or store-and-forward switching (a packet only
  moves once fully buffered) for the switching-mode ablation.

Scheduling is *input-granular*: every input port is idle (empty
buffer, not scanned), movable (on the scan list the per-cycle traverse
examines) or parked (blocked head with frozen per-cycle stall deltas,
re-armed only by the event that can unblock it — a credit return on
its target output, the release of the wormhole channel it waits on, or
a new arrival completing a store-and-forward packet).  A switch whose
scan list is empty costs zero Python per cycle; a *partially* blocked
switch keeps streaming its movable inputs without rescanning the
blocked ones.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.noc.arbiter import Arbiter, make_arbiter
from repro.noc.buffer import BufferFullError, FlitBuffer
from repro.noc.flit import Flit
from repro.noc.routing import TableRouting, compile_dense_route_table


class SwitchingMode(enum.Enum):
    """Packet-switching discipline of the emulated switch."""

    WORMHOLE = "wormhole"
    STORE_AND_FORWARD = "store_and_forward"


@dataclass
class SwitchConfig:
    """Parameters of one switch (the Slide 6 parameter set).

    ``buffer_depth`` is the per-input FIFO capacity in flits.
    ``arbitration`` names a policy understood by
    :func:`repro.noc.arbiter.make_arbiter`.  Their defaults here are
    the platform's: the network, the platform config, the scenario
    spec and the config builders read them from this class.
    """

    n_inputs: int
    n_outputs: int
    buffer_depth: int = 4
    arbitration: str = "round_robin"
    mode: SwitchingMode = SwitchingMode.WORMHOLE

    def __post_init__(self) -> None:
        if self.n_inputs < 1:
            raise ValueError("switch needs >= 1 input port")
        if self.n_outputs < 1:
            raise ValueError("switch needs >= 1 output port")
        if self.buffer_depth < 1:
            raise ValueError("buffer depth must be >= 1 flit")
        if isinstance(self.mode, str):
            self.mode = SwitchingMode(self.mode)


@dataclass(slots=True)
class _OutputPort:
    """Book-keeping for one output port, wired up by the network.

    Besides the flow-control state, the port carries the persistent
    per-output scheduling lists: ``requests`` (input indices requesting
    this port in the current traverse — replaces the per-cycle request
    dict rebuild), ``credit_waiters`` (parked inputs whose head starves
    for this port's credits) and ``lock_waiters`` (parked inputs whose
    head waits for this port's wormhole channel).  Waiter entries may
    be stale — an input woken through another path skips them on
    processing — so appends never need a membership check.
    """

    send: Callable[[Flit, int], None]
    credits: int  # remaining downstream buffer slots (None -> infinite)
    infinite_credits: bool = False
    # Run state below, set by the switch and by restore.  Each field
    # takes a default_factory: a dataclass leaves a plain-default
    # init=False field out of the instance dict, which the checkpoint
    # walker records.
    #: Input index holding the wormhole channel.
    lock: Optional[int] = field(init=False, default_factory=lambda: None)
    #: Packet id of the wormhole holding the lock (fault accounting:
    #: lets the injector identify the packet whose tail can no longer
    #: arrive when a link dies mid-wormhole).  Set and cleared with
    #: ``lock`` at head-grant and tail-release.
    lock_pid: Optional[int] = field(
        init=False, default_factory=lambda: None
    )
    #: ``flits_sent`` minus the link's ``flits_carried``: the flits the
    #: link's statistics resets took away, and every flit a custom
    #: sink received (see :attr:`flits_sent`).
    sent_base: int = field(init=False, default_factory=int)
    #: The Link behind ``send`` when the sink is a plain link, letting
    #: the traverse fast path inline the send; None for custom sinks.
    link: Optional[object] = None
    #: The arbiter of this output port (the switch's per-output list
    #: entry, cached here so the grant loop needs no index lookup).
    arbiter: Optional[Arbiter] = None
    requests: List[int] = field(init=False, default_factory=list)
    credit_waiters: List[int] = field(init=False, default_factory=list)
    lock_waiters: List[int] = field(init=False, default_factory=list)

    #: Not checkpointed (see :mod:`repro.checkpoint.walker`): sink
    #: wiring, topology config, the per-cycle request scratch (empty
    #: at every cycle boundary), and ``sent_base``, which checkpoints
    #: carry as the derived ``flits_sent``.
    __rebuilt__ = ("send", "infinite_credits", "link", "requests",
                   "sent_base")

    @property
    def flits_sent(self) -> int:
        """Flits this port has sent since the switch was built."""
        link = self.link
        if link is None:
            return self.sent_base
        return self.sent_base + link.flits_carried


class Switch:
    """One input-buffered switch of the emulation platform.

    The network drives the switch with :meth:`receive` (flit arrival
    from a link or a network interface), its credit wheel (flow-control
    credit returned by a downstream buffer, see
    ``Network._drain_credit_slot``) and :func:`traverse_all`
    (one cycle of arbitration and flit movement over every active
    switch; :meth:`traverse` applies it to this switch alone).  Parked
    inputs settle their stalls against ``_clock``, which the network
    installs.
    """

    __slots__ = (
        "switch_id",
        "config",
        "routing",
        "inputs",
        "arbiters",
        "_outputs",
        "_input_credit",
        "_input_route",
        "_input_out",
        "_route_dense",
        "_wake",
        "_clock",
        "_active",
        "_sf_mode",
        "_scan",
        "_in_tuples",
        "_in_active",
        "_in_listed",
        "_in_parked",
        "_in_park_cycle",
        "_in_park_head",
        "_in_park_credit",
        "_parked_count",
        "_req_ports",
        "_cwheel",
        "_fwheel",
        "_wheel_size",
        "flits_forwarded",
        "_blocked_flit_cycles",
        "_credit_stall_cycles",
    )
    #: Not checkpointed as values (see :mod:`repro.checkpoint.walker`):
    #: config, routing and wiring the network rebuilds; the arbiters,
    #: captured through their output ports; and the per-input columns,
    #: FIFOs and scan order, which checkpoint code transposes into
    #: per-input records and maps through the packet registry.
    __rebuilt__ = (
        "switch_id", "config", "routing", "inputs", "arbiters",
        "_input_credit", "_input_route", "_input_out", "_route_dense",
        "_wake", "_clock", "_sf_mode", "_scan", "_in_tuples",
        "_in_active", "_in_listed", "_in_parked", "_in_park_cycle",
        "_in_park_head", "_in_park_credit", "_req_ports", "_cwheel",
        "_fwheel", "_wheel_size",
    )

    def __init__(
        self,
        switch_id: int,
        config: SwitchConfig,
        routing: TableRouting,
    ) -> None:
        self.switch_id = switch_id
        self.config = config
        self.routing = routing
        self.inputs: List[FlitBuffer] = [
            FlitBuffer(
                config.buffer_depth,
                name=f"sw{switch_id}.in{i}",
                track_packets=config.mode is SwitchingMode.STORE_AND_FORWARD,
            )
            for i in range(config.n_inputs)
        ]
        self.arbiters: List[Arbiter] = [
            make_arbiter(config.arbitration, config.n_inputs)
            for _ in range(config.n_outputs)
        ]
        self._outputs: List[Optional[_OutputPort]] = [
            None
        ] * config.n_outputs
        # Upstream credit scheduling per input: the ``(delay, wheel
        # entry)`` pair the network installs (the hop appends the entry
        # straight into the credit wheel — no callback frame).
        self._input_credit: List[Optional[Tuple[int, tuple]]] = [
            None
        ] * config.n_inputs
        # Cached route of the packet currently at the head of each input
        # (set when its HEAD flit is routed, cleared when TAIL leaves):
        # the output port index, and the _OutputPort object itself so
        # the scan dereferences one list instead of two.
        self._input_route: List[Optional[int]] = [None] * config.n_inputs
        self._input_out: List[Optional[_OutputPort]] = [
            None
        ] * config.n_inputs
        # Dense routing array ``dst -> output port`` compiled by the
        # network at build (None before compilation, and None entries
        # fall back to the routing function: multipath choice or a
        # proper RoutingError for missing destinations).
        self._route_dense: Optional[List[Optional[int]]] = None
        # The network's wake-up hook fired whenever the switch needs to
        # (re)join the active set.  ``_clock`` reads the network cycle
        # for the bulk settlement of parked inputs.
        self._wake: Optional[Callable[[], None]] = None
        self._clock: Optional[Callable[[], int]] = None
        self._active = False
        self._sf_mode = config.mode is SwitchingMode.STORE_AND_FORWARD
        # Input-granular scheduling state.  ``_scan`` holds the
        # (index, buffer, fifo) tuples of the movable inputs; the
        # per-input flags track list membership (``_in_listed``,
        # physical presence until the next compaction) and liveness
        # (``_in_active``).  A parked input freezes the blocked head
        # of its parking cycle plus whether it stalled purely on
        # credits; the per-cycle stall statistics of the parked
        # stretch are settled in bulk on wake-up (see
        # ``_settle_input``), so a parked input costs zero Python per
        # cycle.
        n_in = config.n_inputs
        self._in_tuples: List[tuple] = [
            (i, buf, buf._fifo) for i, buf in enumerate(self.inputs)
        ]
        self._scan: List[tuple] = []
        self._in_active: List[bool] = [False] * n_in
        self._in_listed: List[bool] = [False] * n_in
        self._in_parked: List[bool] = [False] * n_in
        self._in_park_cycle: List[int] = [0] * n_in
        self._in_park_head: List[Optional[Flit]] = [None] * n_in
        self._in_park_credit: List[bool] = [False] * n_in
        self._parked_count = 0
        # Scratch list of output ports with pending requests this
        # traverse (reused across calls; the per-output ``requests``
        # lists live on the ports themselves).
        self._req_ports: List[_OutputPort] = []
        # Delivery-wheel wiring for :meth:`traverse` (set by the
        # network; every network link shares the two global wheels of
        # one size, so the hop appends to them directly instead of
        # dereferencing the link's copy).
        self._cwheel: Optional[List[list]] = None
        self._fwheel: Optional[List[list]] = None
        self._wheel_size = 1
        # Statistics.
        self.flits_forwarded = 0
        self._blocked_flit_cycles = 0  # head wanted to move, couldn't
        self._credit_stall_cycles = 0  # subset blocked purely on credits

    # ------------------------------------------------------------------
    # Wiring (done once by the network)
    # ------------------------------------------------------------------
    def connect_output(
        self,
        port: int,
        send: Callable[[Flit, int], None],
        credits: Optional[int],
        link: Optional[object] = None,
    ) -> None:
        """Attach output ``port`` to a sink.

        ``credits`` is the downstream buffer capacity, or ``None`` for a
        sink that always accepts (a traffic receptor consuming one flit
        per cycle never backpressures the switch).  ``link`` names the
        :class:`~repro.noc.link.Link` behind ``send`` when there is
        one, enabling the inlined send fast path.
        """
        if self._outputs[port] is not None:
            raise RuntimeError(
                f"output port {port} of switch {self.switch_id} is"
                f" already connected"
            )
        infinite = credits is None
        self._outputs[port] = _OutputPort(
            send=send,
            credits=0 if infinite else credits,
            infinite_credits=infinite,
            link=link,
            arbiter=self.arbiters[port],
        )

    def _connect_input_credit(
        self, port: int, delay: int, entry: tuple
    ) -> None:
        """Fused credit return for input ``port``: every pop appends
        ``entry`` to the network credit wheel ``delay`` cycles out, as
        one list append on the hop itself (no callback frame)."""
        if self._input_credit[port] is not None:
            raise RuntimeError(
                f"input port {port} of switch {self.switch_id} already"
                f" has a credit hook"
            )
        self._input_credit[port] = (delay, entry)

    def check_wired(self) -> None:
        for port, out in enumerate(self._outputs):
            if out is None:
                raise RuntimeError(
                    f"output port {port} of switch {self.switch_id} is"
                    f" not connected"
                )

    def _compile_routes(self, n_nodes: int) -> None:
        """Compile the routing function into a dense per-destination
        array (called by the network once the platform is wired)."""
        self._route_dense = compile_dense_route_table(
            self.routing, self.switch_id, n_nodes
        )

    # ------------------------------------------------------------------
    # Per-cycle interface
    # ------------------------------------------------------------------
    def receive(self, port: int, flit: Flit, now: int = 0) -> None:
        """A flit arrives on input ``port`` (from a link or an NI).

        ``now`` is accepted (and ignored) so the network can bind this
        method directly as a link delivery sink via ``partial``.  The
        body is the buffer's push rule — this is one of the two
        per-flit-hop hot spots of the whole simulator.
        """
        buf = self.inputs[port]
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
        if len(fifo) > buf.peak_occupancy:
            buf.peak_occupancy = len(fifo)
        if len(fifo) == 1:
            # Previously empty input: a new head to route.  (An input
            # with an empty buffer is never parked, so this is purely
            # a scan-list activation.)
            if not self._in_listed[port]:
                self._in_listed[port] = True
                self._in_active[port] = True
                self._scan.append(self._in_tuples[port])
            if not self._active and self._wake is not None:
                self._wake()
        elif (
            self._sf_mode
            and self._in_parked[port]
            and self._in_park_head[port] is None
        ):
            # Store-and-forward input waiting on a partial packet: this
            # arrival may complete it — re-examine next traverse.  (A
            # flit landing behind a credit- or lock-blocked head, in
            # either switching mode, changes nothing: stay parked.)
            self._unpark_input(port)

    def _credit_wake_port(self, out: _OutputPort, now: int) -> None:
        """A credit returned at cycle ``now`` on a port with parked
        waiters.  Credits land in the network's first phase, before
        this cycle's traverse, so settlement stops at the previous
        cycle and the inputs re-enter the scan in time to move this
        cycle.  Stale entries (inputs woken through another path since
        they registered) are skipped."""
        until = now - 1
        parked = self._in_parked
        waiters = out.credit_waiters
        for i in waiters:
            if parked[i]:
                self._wake_input(i, until)
        del waiters[:]

    def _route_head(self, head: Flit, buf: FlitBuffer) -> Optional[int]:
        """Route an unrouted head flit (slow/store-and-forward path).

        Returns ``None`` when a store-and-forward packet must keep
        waiting for the rest of its flits.
        """
        # Only HEAD flits may be unrouted; a BODY flit at the head of a
        # buffer with no cached route indicates a protocol bug.
        if not head.is_head:
            raise RuntimeError(
                f"non-head flit {head!r} at head of an input of"
                f" sw{self.switch_id} without a route"
            )
        if self._sf_mode:
            length = head.packet.length
            if length > buf.capacity:
                raise RuntimeError(
                    f"store-and-forward switch {self.switch_id} has"
                    f" {buf.capacity}-flit buffers but received a"
                    f" {length}-flit packet"
                )
            if buf.packet_flit_count(head.packet.pid) < length:
                return None  # wait for the full packet
        dense = self._route_dense
        if dense is not None:
            port = dense[head.dst]
            if port is not None:
                return port
        return self.routing.output_port(self.switch_id, head)

    def traverse(self, now: int) -> int:
        """One cycle of this switch alone (see :func:`traverse_all`);
        returns the number of flits forwarded.  The delivery-wheel
        slots of cycle ``now`` are looked up here, per call; a
        standalone switch may have neither wheel."""
        size = self._wheel_size
        slots = [
            None if wheel is None
            else [wheel[(now + d) % size] for d in range(size)]
            for wheel in (self._cwheel, self._fwheel)
        ]
        return traverse_all([self], now, *slots)[0]

    def traverse_reference(self, now: int) -> int:
        """One cycle via the scan-everything discipline (parity oracle).

        Self-heals the input-granular parked state first: every parked
        input settles its stretch and rejoins the scan, so this path
        re-examines the whole switch each cycle exactly as the seed
        dataflow did (blocked inputs then re-park with zero elapsed
        cycles, which keeps mixed stepping coherent).  The waiter
        registrations of the woken inputs become stale and are purged
        wholesale.
        """
        if self._parked_count:
            until = now - 1
            parked = self._in_parked
            for i in range(len(parked)):
                if parked[i]:
                    self._wake_input(i, until)
            for out in self._outputs:
                if out.credit_waiters:
                    del out.credit_waiters[:]
                if out.lock_waiters:
                    del out.lock_waiters[:]
        return self.traverse(now)

    # ------------------------------------------------------------------
    # Input-granular parking
    # ------------------------------------------------------------------
    def _park_input(
        self, i: int, now: int, head: Optional[Flit], credit: bool
    ) -> None:
        """Freeze input ``i`` after its blocked examination at ``now``.

        The traverse already ticked this cycle's stall, so settlement
        starts at ``now + 1``.  ``head`` is the blocked flit charged
        one stall per parked cycle (None for a store-and-forward input
        waiting on a partial packet, which stalls nothing); ``credit``
        marks the stall as purely credit-bound.
        """
        self._in_active[i] = False
        self._in_parked[i] = True
        self._in_park_cycle[i] = now
        self._in_park_head[i] = head
        self._in_park_credit[i] = credit
        self._parked_count += 1

    def _settle_input(self, i: int, until: int) -> None:
        """Account the stalls of parked cycles ``park_cycle+1..until``.

        Equivalent to running ``traverse`` for each of those cycles:
        the frozen blocked head stalls once per cycle and the switch
        counters advance by the same per-cycle deltas the parking
        examination produced.
        """
        elapsed = until - self._in_park_cycle[i]
        if elapsed <= 0:
            return
        self._in_park_cycle[i] = until
        head = self._in_park_head[i]
        if head is not None:
            head.stall_cycles += elapsed
            self._blocked_flit_cycles += elapsed
            if self._in_park_credit[i]:
                self._credit_stall_cycles += elapsed

    def _unpark_input(self, i: int) -> None:
        """Re-arm input ``i``: back on the scan list, switch woken."""
        self._in_parked[i] = False
        self._in_park_head[i] = None
        self._parked_count -= 1
        self._in_active[i] = True
        if not self._in_listed[i]:
            self._in_listed[i] = True
            self._scan.append(self._in_tuples[i])
        if not self._active and self._wake is not None:
            self._wake()

    def _wake_input(self, i: int, until: int) -> None:
        """Settle input ``i`` through ``until`` and re-arm it.

        ``_settle_input`` + ``_unpark_input`` fused into one frame:
        credit-return and lock-release wakes are the churn path of the
        saturation regime.
        """
        elapsed = until - self._in_park_cycle[i]
        if elapsed > 0:
            self._in_park_cycle[i] = until
            head = self._in_park_head[i]
            if head is not None:
                head.stall_cycles += elapsed
                self._blocked_flit_cycles += elapsed
                if self._in_park_credit[i]:
                    self._credit_stall_cycles += elapsed
        self._in_parked[i] = False
        self._in_park_head[i] = None
        self._parked_count -= 1
        self._in_active[i] = True
        if not self._in_listed[i]:
            self._in_listed[i] = True
            self._scan.append(self._in_tuples[i])
        if not self._active and self._wake is not None:
            self._wake()

    @property
    def parked_inputs(self) -> Tuple[int, ...]:
        """Indices of the currently parked input ports (test hook)."""
        return tuple(
            i for i, parked in enumerate(self._in_parked) if parked
        )

    def _pending_stall_deltas(self) -> Tuple[int, int]:
        """(blocked, credit) stalls of parked cycles not yet settled."""
        if not self._parked_count:
            return 0, 0
        until = self._clock() - 1
        blocked = credit = 0
        parked = self._in_parked
        heads = self._in_park_head
        cycles = self._in_park_cycle
        credit_flags = self._in_park_credit
        for i in range(len(parked)):
            if parked[i] and heads[i] is not None:
                pending = until - cycles[i]
                if pending > 0:
                    blocked += pending
                    if credit_flags[i]:
                        credit += pending
        return blocked, credit

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def sample_buffers(self) -> None:
        """Record one cycle of buffer occupancy on every input FIFO."""
        for buf in self.inputs:
            buf.sample()

    @property
    def buffered_flits(self) -> int:
        """Flits currently sitting in this switch's input buffers."""
        return sum(len(buf._fifo) for buf in self.inputs)

    @property
    def blocked_flit_cycles(self) -> int:
        """Head-of-line blocking events (settled through the last
        emulated cycle, including any still-parked inputs)."""
        pending, _ = self._pending_stall_deltas()
        return self._blocked_flit_cycles + pending

    @property
    def credit_stall_cycles(self) -> int:
        """Subset of blocking events stalled purely on credits."""
        _, pending = self._pending_stall_deltas()
        return self._credit_stall_cycles + pending

    def stats_snapshot(self) -> Tuple[int, int, int]:
        """``(forwarded, blocked, credit_stalls)`` settled through the
        last emulated cycle.

        One reading of the three settle-on-read counters with a single
        parked-input walk — the windowed-telemetry snapshot path, where
        the separate properties would walk the parked inputs twice.
        """
        blocked, credit = self._pending_stall_deltas()
        return (
            self.flits_forwarded,
            self._blocked_flit_cycles + blocked,
            self._credit_stall_cycles + credit,
        )

    def output_credits(self, port: int) -> Optional[int]:
        """Remaining credits of output ``port`` (None = infinite)."""
        out = self._outputs[port]
        assert out is not None
        return None if out.infinite_credits else out.credits

    def reset_stats(self) -> None:
        if self._parked_count:
            # Reset-while-parked: per-flit stall counters survive a
            # statistics reset, so each parked stretch up to the reset
            # must settle into them first; the switch counters are
            # then zeroed and the (still valid) parked inputs keep
            # accumulating into the fresh window.
            until = self._clock() - 1
            parked = self._in_parked
            for i in range(len(parked)):
                if parked[i]:
                    self._settle_input(i, until)
        self.flits_forwarded = 0
        self._blocked_flit_cycles = 0
        self._credit_stall_cycles = 0
        for buf in self.inputs:
            buf.reset_stats()
        for arb in self.arbiters:
            arb.reset()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Switch({self.switch_id}, in={self.config.n_inputs},"
            f" out={self.config.n_outputs},"
            f" depth={self.config.buffer_depth})"
        )


def traverse_all(
    active: List[Switch],
    now: int,
    cslots: Optional[List[list]],
    fslots: Optional[List[list]],
) -> Tuple[int, bool]:
    """One cycle of arbitration and traversal over the given switches.

    The one form of the per-cycle switch rule: the event kernel calls
    it over its active list, :meth:`Switch.traverse` over a single
    switch.  At most one flit leaves per output port and at most one
    per input port.  Only the movable inputs are examined: an input
    whose head is blocked parks individually and is re-armed by the
    event that can unblock it, while the remaining inputs keep
    streaming.  With input-granular parking a switch's scan is
    typically one or two entries, so the whole phase runs as one loop
    (no per-switch call frame) with the network's shared delivery
    wheels hoisted to arguments, indexed by delay: ``cslots[d]`` and
    ``fslots[d]`` are the credit and flit wheel slots a return or a
    send at ``now`` with delay ``d`` lands in.  Returns ``(flits
    moved, any switch left without movable inputs)``; such a switch
    has its ``_active`` flag cleared.
    """
    total_moved = 0
    retire = False
    for sw in active:
        scan = sw._scan
        if not scan:
            sw._active = False
            retire = True
            continue
        route_outs = sw._input_out
        actives = sw._in_active
        credit_entries = sw._input_credit
        req_ports = sw._req_ports
        if req_ports:
            # A previous traverse aborted mid-scan (a protocol error
            # surfaced in a unit test): drop its stale requests.
            for out in req_ports:
                del out.requests[:]
            del req_ports[:]
        moved = 0
        compact = False
        for entry in scan:
            i, buf, fifo = entry
            if not fifo:
                # Drained since it last moved: back to idle.
                actives[i] = False
                compact = True
                continue
            out = route_outs[i]
            if out is None:
                head = fifo[0]
                route_dense = sw._route_dense
                if (
                    route_dense is not None
                    and not sw._sf_mode
                    and head.is_head
                ):
                    desired = route_dense[head.dst]
                    if desired is None:
                        desired = sw.routing.output_port(
                            sw.switch_id, head
                        )
                else:
                    desired = sw._route_head(head, buf)
                    if desired is None:
                        # Store-and-forward packet still arriving: only
                        # a flit into this input can change that.
                        sw._park_input(i, now, None, False)
                        compact = True
                        continue
                sw._input_route[i] = desired
                out = route_outs[i] = sw._outputs[desired]
            lock = out.lock
            if lock == i:
                flit = fifo[0]
                if not flit.is_tail:
                    # Streaming fast path: a mid-packet flit on its
                    # exclusively locked channel cannot face
                    # arbitration, and moving it changes no state any
                    # other input's scan decision depends on.  (Tail
                    # flits release the lock, which must stay visible
                    # only after the scan, so they take the slow path.)
                    if out.infinite_credits:
                        pass
                    elif out.credits > 0:
                        out.credits -= 1
                    else:
                        flit.stall_cycles += 1
                        sw._blocked_flit_cycles += 1
                        sw._credit_stall_cycles += 1
                        sw._park_input(i, now, flit, True)
                        out.credit_waiters.append(i)
                        compact = True
                        continue
                    # Fused hop: the buffer's pop rule, the upstream
                    # credit schedule and Link.send inlined (the per-flit-hop
                    # hot spots); the buffer is non-empty by
                    # construction.
                    fifo.popleft()
                    counts = buf._pid_counts
                    if counts is not None:
                        pid = flit.packet.pid
                        remaining = counts[pid] - 1
                        if remaining:
                            counts[pid] = remaining
                        else:
                            del counts[pid]
                    ce = credit_entries[i]
                    if ce is not None:
                        cslots[ce[0]].append(ce[1])
                    link = out.link
                    if link is None:
                        out.send(flit, now)
                        out.sent_base += 1
                    else:
                        if link._last_send_cycle == now:
                            out.send(flit, now)  # raises the protocol error
                        link._last_send_cycle = now
                        fslots[link.delay].append((link, flit))
                        link.flits_carried += 1
                    moved += 1
                    continue
            elif lock is not None:
                # Channel held by another packet's wormhole: only the
                # tail of that packet can release it.
                head = fifo[0]
                head.stall_cycles += 1
                sw._blocked_flit_cycles += 1
                sw._park_input(i, now, head, False)
                out.lock_waiters.append(i)
                compact = True
                continue
            if not out.infinite_credits and out.credits <= 0:
                head = fifo[0]
                head.stall_cycles += 1
                sw._blocked_flit_cycles += 1
                sw._credit_stall_cycles += 1
                sw._park_input(i, now, head, True)
                out.credit_waiters.append(i)
                compact = True
                continue
            reqs = out.requests
            if not reqs:
                req_ports.append(out)
            reqs.append(i)

        if req_ports:
            inputs = sw.inputs
            for out in req_ports:
                reqs = out.requests
                lock = out.lock
                if lock is not None:
                    # The locked input has exclusive use of this
                    # channel (every other contender is lock-blocked),
                    # so ``reqs`` is exactly ``[lock]``.
                    winner = lock
                elif len(reqs) == 1:
                    winner = out.arbiter.grant_single(reqs[0])
                else:
                    winner = out.arbiter.grant(reqs)
                # The fused hop again (head/tail flits come through
                # here).
                buf = inputs[winner]
                fifo = buf._fifo
                flit = fifo.popleft()
                counts = buf._pid_counts
                if counts is not None:
                    pid = flit.packet.pid
                    remaining = counts[pid] - 1
                    if remaining:
                        counts[pid] = remaining
                    else:
                        del counts[pid]
                ce = credit_entries[winner]
                if ce is not None:
                    cslots[ce[0]].append(ce[1])
                link = out.link
                if link is None:
                    out.send(flit, now)
                    out.sent_base += 1
                else:
                    if link._last_send_cycle == now:
                        out.send(flit, now)  # raises the protocol error
                    link._last_send_cycle = now
                    fslots[link.delay].append((link, flit))
                    link.flits_carried += 1
                if not out.infinite_credits:
                    out.credits -= 1
                moved += 1
                # Wormhole channel state.
                if flit.is_tail:
                    out.lock = None
                    out.lock_pid = None
                    sw._input_route[winner] = None
                    route_outs[winner] = None
                    lw = out.lock_waiters
                    if lw:
                        # The channel the waiters starved for is free:
                        # they were blocked through this cycle (the
                        # release is post-scan), so settlement includes
                        # it and the scan re-examines them next cycle.
                        parked = sw._in_parked
                        for j in lw:
                            if parked[j]:
                                sw._wake_input(j, now)
                        del lw[:]
                elif flit.is_head:
                    out.lock = winner
                    out.lock_pid = flit.packet.pid
                # Losers of this arbitration stalled (they may win the
                # very next cycle, so they stay on the scan list).
                n_reqs = len(reqs)
                if n_reqs > 1:
                    for loser in reqs:
                        if loser != winner:
                            inputs[loser]._fifo[0].stall_cycles += 1
                    sw._blocked_flit_cycles += n_reqs - 1
                del reqs[:]
            del req_ports[:]

        if compact:
            listed = sw._in_listed
            keep = []
            for entry in scan:
                if actives[entry[0]]:
                    keep.append(entry)
                else:
                    listed[entry[0]] = False
            scan[:] = keep
        sw.flits_forwarded += moved
        total_moved += moved
        if not scan:
            sw._active = False
            retire = True
    return total_moved, retire
