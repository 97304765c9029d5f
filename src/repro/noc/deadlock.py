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


def _channel_graph(
    topology: Topology,
    routing: RoutingFunction,
    destinations: Optional[Sequence[int]],
) -> Tuple[List[Channel], List[Set[int]]]:
    """The dependency graph over integer channel ids.

    Returns the channels (id -> ``(a, b)``) and, per id, the ids it
    depends on.  Each switch's routes are read from its dense
    ``dst -> port`` row (:meth:`RoutingFunction.dense_row`), which for
    table routings is the table itself, not a copy; only ``None``
    entries — multipath choices, missing routes — ask
    :meth:`RoutingFunction.ports_for`.
    """
    n_switches = topology.n_switches
    n_nodes = topology.n_nodes
    if destinations is None:
        destinations = range(n_nodes)
    # Per switch and output port: the channel ids a packet leaving
    # there occupies — one for an inter-switch link, none for an
    # ejection port, which terminates the chain.
    ids: Dict[Channel, int] = {}
    port_hops: List[List[Tuple[int, ...]]] = []
    for s in range(n_switches):
        port_hops.append([
            (ids.setdefault((s, ep.target), len(ids)),)
            if ep.kind == "switch"
            else ()
            for ep in topology.switch_outputs[s]
        ])
    channels = list(ids)
    heads = [b for _a, b in channels]
    rows = [routing.dense_row(s, n_nodes) for s in range(n_switches)]
    unknown: List[Optional[int]] = [None] * n_switches
    succ: List[Set[int]] = [set() for _ in channels]
    for dst in destinations:
        if 0 <= dst < n_nodes:
            col = [None if row is None else row[dst] for row in rows]
        else:
            col = unknown
        # The channels a packet to ``dst`` may take next at each switch.
        nxt = [
            port_hops[s][port]
            if port is not None
            else tuple(
                c
                for p in routing.ports_for(s, dst)
                for c in port_hops[s][p]
            )
            for s, port in enumerate(col)
        ]
        for hops in nxt:
            for c in hops:
                succ[c].update(nxt[heads[c]])
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
