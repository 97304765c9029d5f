"""Routing deadlock analysis.

Wormhole switching deadlocks when the *channel dependency graph* (CDG)
of a routing function contains a cycle (Dally & Seitz): a packet
holding channel A while waiting for channel B creates the dependency
A -> B, and a cyclic chain of such dependencies can stall forever.

The emulation platform loads routing tables at initialisation time
(software!), so a bad table can deadlock the emulated NoC without any
hardware bug.  This module builds the CDG of any
:class:`~repro.noc.routing.RoutingFunction` over a topology and checks
it for cycles, so the platform-initialisation step can refuse unsafe
tables before a multi-hour emulation hangs.

A *channel* here is a directed inter-switch link ``(a, b)``; injection
and ejection channels cannot participate in cycles (sources hold
nothing upstream, sinks always drain) and are excluded.

The graph is built per channel, not per destination: each channel gets
the bitmask of destinations whose packets occupy it, read from the
switches' dense route rows, and ``c -> c'`` holds exactly when ``c'``
leaves the switch ``c`` enters and the two masks share a destination.
The work grows with channels times row length in C-level byte and int
operations, where a walk over every (destination, switch) pair would
pay one Python set update each.
"""

from __future__ import annotations

from typing import (
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from repro.noc.routing import RoutingFunction
from repro.noc.topology import Topology

Channel = Tuple[int, int]  # directed switch pair (a, b)
Node = TypeVar("Node", bound=Hashable)


class DeadlockError(RuntimeError):
    """Raised by :func:`assert_deadlock_free` when a cycle exists."""


#: The row byte of an entry that is not one static port (``None``).
#: Switches with this many output ports or more are read per entry.
_NO_PORT = 255
_ZEROS = b"0" * 256


def _encoded_row(
    row: Optional[Sequence[Optional[int]]], n_nodes: int, n_ports: int
) -> Optional[bytes]:
    """``row``'s first ``n_nodes`` entries as one byte each (``None`` as
    :data:`_NO_PORT`), or ``None`` when a byte cannot hold the row:
    no row, too many ports, or an entry that is not one of the ports."""
    if row is None or n_ports >= _NO_PORT or not 0 < n_nodes <= len(row):
        return None
    if len(row) > n_nodes:
        row = row[:n_nodes]
    try:
        encoded = bytes(row)
    except TypeError:  # a ``None`` entry (or not a port at all)
        try:
            encoded = bytes([_NO_PORT if p is None else p for p in row])
        except (TypeError, ValueError):
            return None
    except ValueError:
        return None
    if encoded.translate(None, bytes(range(n_ports)) + b"\xff"):
        return None
    return encoded


def _channel_graph(
    topology: Topology,
    routing: RoutingFunction,
    destinations: Optional[Sequence[int]],
) -> Tuple[List[Channel], List[Set[int]]]:
    """The dependency graph over integer channel ids.

    Returns the channels (id -> ``(a, b)``) and, per id, the ids it
    depends on.  Each channel gets one int bitmask of the destinations
    whose packets occupy it, and ``c -> c'`` exists exactly when ``c'``
    leaves the switch ``c`` enters and the two masks intersect.  A
    switch's masks come from its dense ``dst -> port`` row
    (:meth:`RoutingFunction.dense_row`), encoded once as bytes: per
    output port, ``translate`` maps the port's byte to ``"1"`` and every
    other byte to ``"0"``, and ``int(..., 2)`` reads that as the mask
    (destination ``d`` is bit ``n_nodes - 1 - d``).  Only ``None``
    entries (multipath choices, missing routes), destinations outside
    ``[0, n_nodes)`` and rows a byte cannot hold ask
    :meth:`RoutingFunction.ports_for`, destination by destination.
    """
    n_switches = topology.n_switches
    n_nodes = topology.n_nodes
    # Per switch and output port: the channel id a packet leaving there
    # occupies, or ``None`` for an ejection port, which terminates the
    # chain.
    ids: Dict[Channel, int] = {}
    port_channel: List[List[Optional[int]]] = [
        [
            ids.setdefault((s, ep.target), len(ids))
            if ep.kind == "switch"
            else None
            for ep in topology.switch_outputs[s]
        ]
        for s in range(n_switches)
    ]
    channels = list(ids)

    # The destination bits: in-fabric ``d`` at ``n_nodes - 1 - d``, the
    # k-th distinct outside id at ``n_nodes + k``.
    inside: Optional[Set[int]] = None
    outside: Dict[int, int] = {}
    if destinations is None:
        wanted = (1 << n_nodes) - 1
    else:
        inside = set()
        for dst in destinations:
            if 0 <= dst < n_nodes:
                inside.add(dst)
            elif dst not in outside:
                outside[dst] = 1 << (n_nodes + len(outside))
        bits = bytearray(b"0" * n_nodes)
        for dst in inside:
            bits[dst] = ord("1")
        wanted = int(bits or b"0", 2) | sum(outside.values())

    users = [0] * len(channels)
    tables: List[bytes] = []  # per port: its byte -> "1", others -> "0"
    for s in range(n_switches):
        chans = port_channel[s]
        row = routing.dense_row(s, n_nodes)
        encoded = _encoded_row(row, n_nodes, len(chans))
        if encoded is None:
            # Entry by entry: the row's port where it has one.
            probe = list(range(n_nodes))
        else:
            while len(tables) < len(chans):
                port = len(tables)
                tables.append(_ZEROS[:port] + b"1" + _ZEROS[port + 1:])
            for c, table in zip(chans, tables):
                if c is not None:
                    users[c] |= int(encoded.translate(table), 2)
            row = None  # its ports are in the masks; probe the Nones
            probe = []
            dst = encoded.find(_NO_PORT)
            while dst >= 0:
                probe.append(dst)
                dst = encoded.find(_NO_PORT, dst + 1)
        asks = [
            (dst, 1 << (n_nodes - 1 - dst), None if row is None else row[dst])
            for dst in probe
            if inside is None or dst in inside
        ]
        asks.extend((dst, bit, None) for dst, bit in outside.items())
        for dst, bit, port in asks:
            for p in routing.ports_for(s, dst) if port is None else (port,):
                c = chans[p]
                if c is not None:
                    users[c] |= bit

    succ: List[Set[int]] = []
    for c, (_a, b) in enumerate(channels):
        mine = users[c] & wanted
        succ.append({
            d for d in port_channel[b] if d is not None and users[d] & mine
        } if mine else set())
    return channels, succ


def channel_dependency_graph(
    topology: Topology,
    routing: RoutingFunction,
    destinations: Optional[Sequence[int]] = None,
) -> Dict[Channel, Set[Channel]]:
    """All channel dependencies the routing function can create.

    For every destination and every switch, each input channel that a
    packet toward that destination can occupy depends on every output
    channel the routing function may pick next.  Multi-path functions
    contribute all their candidate ports.  Channels without any
    dependency are left out.
    """
    channels, succ = _channel_graph(topology, routing, destinations)
    return {
        channels[c]: {channels[d] for d in deps}
        for c, deps in enumerate(succ)
        if deps
    }


def find_dependency_cycle(
    graph: Dict[Node, Set[Node]]
) -> Optional[List[Node]]:
    """One cycle of the dependency graph, or ``None`` if acyclic.

    Iterative DFS with colouring; returns the cycle as a node list
    ``[c0, c1, ..., c0]`` for diagnostics.  Nodes are channels or
    their integer ids.
    """
    WHITE, GREY, BLACK = 0, 1, 2
    colour: Dict[Node, int] = {c: WHITE for c in graph}
    parent: Dict[Node, Optional[Node]] = {}

    for root in graph:
        if colour[root] != WHITE:
            continue
        stack: List[Tuple[Node, Iterable[Node]]] = [
            (root, iter(graph.get(root, ())))
        ]
        colour[root] = GREY
        parent[root] = None
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                if child not in colour:
                    colour[child] = WHITE
                if colour[child] == WHITE:
                    colour[child] = GREY
                    parent[child] = node
                    stack.append((child, iter(graph.get(child, ()))))
                    advanced = True
                    break
                if colour[child] == GREY:
                    # Found a back edge: unwind the cycle.
                    if child == node:  # self-dependency
                        return [node, node]
                    cycle = [child, node]
                    walk = parent[node]
                    while walk is not None and walk != child:
                        cycle.append(walk)
                        walk = parent[walk]
                    cycle.append(child)
                    cycle.reverse()
                    return cycle
            if not advanced:
                colour[node] = BLACK
                stack.pop()
    return None


def _channel_cycle(
    topology: Topology,
    routing: RoutingFunction,
    destinations: Optional[Sequence[int]],
) -> Optional[List[Channel]]:
    """One channel dependency cycle of ``routing``, or ``None``."""
    channels, succ = _channel_graph(topology, routing, destinations)
    cycle = find_dependency_cycle(dict(enumerate(succ)))
    return None if cycle is None else [channels[c] for c in cycle]


def is_deadlock_free(
    topology: Topology,
    routing: RoutingFunction,
    destinations: Optional[Sequence[int]] = None,
) -> bool:
    """True when the routing function's CDG is acyclic."""
    return _channel_cycle(topology, routing, destinations) is None


def assert_deadlock_free(
    topology: Topology,
    routing: RoutingFunction,
    destinations: Optional[Sequence[int]] = None,
) -> None:
    """Raise :class:`DeadlockError` naming a cycle if one exists."""
    cycle = _channel_cycle(topology, routing, destinations)
    if cycle is not None:
        pretty = " -> ".join(f"{a}->{b}" for a, b in cycle)
        raise DeadlockError(
            f"routing can deadlock: channel dependency cycle"
            f" [{pretty}]"
        )
