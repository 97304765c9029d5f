"""Routing tables.

The emulated switches route per packet: when a HEAD flit reaches the
head of an input buffer, the switch looks up an output port; BODY and
TAIL flits follow the wormhole channel the head opened.  Every routing
is a table, as in the hardware platform, where the processor writes
each switch's table through the configuration bus at initialisation.
:class:`TableRouting` holds one row per switch and its multi-path
variant adds candidate lists; the builders fill tables from a topology
(shortest path, equal-cost multi-path, up*/down*) and from the
explicit route cases of the paper's experimental setup
(:func:`paper_routing`).
"""

from __future__ import annotations

from collections import deque
from typing import (
    AbstractSet,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.noc.flit import Flit
from repro.noc.topology import (
    PAPER_FLOWS,
    Topology,
    paper_flow_pairs,
)


class RoutingError(RuntimeError):
    """Raised when no route exists for a (switch, destination) pair."""


#: One switch's routing table: per destination node, the output port a
#: head flit takes there, ``None`` where there is no single static port.
Row = List[Optional[int]]


def compile_dense_route_table(
    routing: "TableRouting", switch_id: int, n_nodes: int
) -> Row:
    """One switch's dense ``dst -> port`` row, as the switch indexes it.

    A lookup: the switch indexes the routing's own list, never a copy.
    Entries are ``None`` — falling back to
    :meth:`TableRouting.output_port` per head flit — when the decision
    is not a single static port: multipath candidates (the per-packet
    hash must keep choosing) and missing destinations (the fallback
    raises the proper :class:`RoutingError`).  Switches and fault
    repair fetch rows through this one function, so the end-to-end
    benchmark's layer trace counts each route compile here.
    """
    return routing.dense_row(switch_id, n_nodes)


def unrouted_destinations(
    routing: "TableRouting",
    row: Row,
    switch: int,
    destinations: Sequence[int],
) -> List[int]:
    """The ``destinations`` that have no route at ``switch``.

    ``row`` is the switch's compiled dense array; only its ``None``
    entries — multipath choices, missing routes, destinations outside
    the array — consult :meth:`TableRouting.ports_for`, the same
    fallback rule the switch applies per head flit.
    """
    n = len(row)
    return [
        dst
        for dst in destinations
        if not (0 <= dst < n and row[dst] is not None)
        and not routing.ports_for(switch, dst)
    ]


def _mix(value: int) -> int:
    """A small integer hash (splitmix-style) for per-packet path choice."""
    value = (value ^ (value >> 16)) * 0x45D9F3B & 0xFFFFFFFF
    value = (value ^ (value >> 16)) * 0x45D9F3B & 0xFFFFFFFF
    return (value ^ (value >> 16)) & 0xFFFFFFFF


class TableRouting:
    """Deterministic table-based routing.

    ``rows[switch][dst_node]`` is the output port to take at ``switch``
    for packets addressed to node ``dst_node``, ``None`` where the
    table has no entry.  The rows are the only store of the routes:
    :meth:`dense_row` hands each switch its row itself, so a switch
    routes from the table exactly as the hardware switch reads the
    table the processor wrote.  Rows are adopted, not copied; the
    builders size them by the topology's node count.
    """

    def __init__(self, rows: List[Row]) -> None:
        self.rows = rows

    def _port(self, switch: int, dst: int) -> Optional[int]:
        rows = self.rows
        if 0 <= switch < len(rows):
            row = rows[switch]
            if 0 <= dst < len(row):
                return row[dst]
        return None

    def output_port(self, switch: int, flit: Flit) -> int:
        """The output port a head flit takes at ``switch``."""
        port = self._port(switch, flit.dst)
        if port is None:
            raise RoutingError(
                f"no route at switch {switch} for destination node"
                f" {flit.dst}"
            )
        return port

    def ports_for(self, switch: int, dst: int) -> List[int]:
        """All output ports a packet for ``dst`` may take at ``switch``
        (the deadlock vet and fault repair read these)."""
        port = self._port(switch, dst)
        return [] if port is None else [port]

    def dense_row(self, switch: int, n_nodes: int) -> Row:
        """``switch``'s row, at least ``n_nodes`` long: the single
        static port per destination node, ``None`` where the decision
        is not one fixed port (see :func:`compile_dense_route_table`)."""
        row = self.rows[switch] if 0 <= switch < len(self.rows) else []
        if len(row) < n_nodes:
            # Only hand-written tables are short: pad a copy.
            return row + [None] * (n_nodes - len(row))
        return row


_NO_CHOICES: Mapping[int, Sequence[int]] = {}


class MultiPathTableRouting(TableRouting):
    """Table routing with several candidate ports per destination.

    ``rows`` hold the single-port entries, as in :class:`TableRouting`.
    ``choices[switch][dst_node]`` lists the candidates (two or more)
    where a destination has several; the row is ``None`` there.  The
    port for a given packet is chosen by hashing the packet id, so all
    flits of one packet take the same path (wormhole-safe) while
    successive packets of a flow spread over the candidates.  This
    models the paper's "two routing possibilities" when the candidate
    lists have length two.
    """

    def __init__(
        self,
        rows: List[Row],
        choices: Optional[Mapping[int, Mapping[int, Sequence[int]]]] = None,
    ) -> None:
        super().__init__(rows)
        self.choices = choices or {}
        for s, entries in self.choices.items():
            for dst, ports in entries.items():
                if not ports:
                    raise RoutingError(
                        f"empty candidate port list at switch {s} for"
                        f" destination {dst}"
                    )

    def output_port(self, switch: int, flit: Flit) -> int:
        ports = self.choices.get(switch, _NO_CHOICES).get(flit.dst)
        if ports is None:
            return super().output_port(switch, flit)
        return ports[_mix(flit.packet.pid) % len(ports)]

    def ports_for(self, switch: int, dst: int) -> List[int]:
        ports = self.choices.get(switch, _NO_CHOICES).get(dst)
        return super().ports_for(switch, dst) if ports is None else list(ports)


# ----------------------------------------------------------------------
# Table builders
# ----------------------------------------------------------------------
#: One destination switch's column: each switch's single port toward
#: it (``None`` = none there), plus the switches that hold several
#: candidate ports; or ``None`` for the whole column when the
#: destination switch is severed from the routed fabric.
Column = Optional[Tuple[Row, Mapping[int, List[int]]]]


def _live_links(
    topo: Topology, avoid: AbstractSet[Tuple[int, int]]
) -> Tuple[List[List[Tuple[int, int]]], List[List[Tuple[int, int]]]]:
    """Per switch, its live switch outputs as ``(port, target)`` in port
    order, and the live links into it as ``(source, source port)``.

    ``avoid`` excludes directed switch pairs — the fault-repair path of
    the platform: when a board link fails, the initialisation step
    rebuilds the tables around it without re-synthesis.
    """
    n = topo.n_switches
    outs: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    preds: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for s in range(n):
        for port, ep in enumerate(topo.switch_outputs[s]):
            if ep.kind == "switch" and (s, ep.target) not in avoid:
                outs[s].append((port, ep.target))
                preds[ep.target].append((s, port))
    return outs, preds


def _reverse_bfs_distances(
    preds: List[List[Tuple[int, int]]], dst_switch: int
) -> Tuple[List[int], List[Optional[int]]]:
    """Reverse BFS toward ``dst_switch`` over the ``(source, source
    port)`` link lists ``preds``.

    Returns each switch's hop distance (-1 = unreachable) and its
    lowest-indexed port one hop closer (``None`` at ``dst_switch`` and
    where unreachable) — the deterministic shortest next hop.
    """
    dist = [-1] * len(preds)
    hop: List[Optional[int]] = [None] * len(preds)
    dist[dst_switch] = 0
    frontier = [dst_switch]
    d = 0
    while frontier:
        d += 1
        reached = []
        for s in frontier:
            for p, port in preds[s]:
                if dist[p] < 0:
                    dist[p] = d
                    hop[p] = port
                    reached.append(p)
                elif dist[p] == d and port < hop[p]:
                    hop[p] = port
        frontier = reached
    return dist, hop


def _rows_by_destination_switch(
    topo: Topology, column: Callable[[int], Column]
) -> Tuple[List[Row], Dict[int, Dict[int, List[int]]]]:
    """Every switch's ``n_nodes``-long row, filled with one ``column``
    per destination switch, and the several-candidate entries as
    ``choices[switch][dst]``.

    Every node on a switch shares that switch's routes everywhere but
    at the switch itself, where the node's ejection port applies — so
    each destination switch's BFS runs once, however many nodes it
    hosts.
    """
    node_port = [0] * topo.n_nodes
    for s in range(topo.n_switches):
        for port, ep in enumerate(topo.switch_outputs[s]):
            if ep.kind == "node":
                node_port[ep.target] = port
    rows: List[Row] = [
        [None] * topo.n_nodes for _ in range(topo.n_switches)
    ]
    choices: Dict[int, Dict[int, List[int]]] = {}
    columns: Dict[int, Column] = {}
    for dst in range(topo.n_nodes):
        dst_switch = topo.switch_of_node(dst)
        if dst_switch not in columns:
            columns[dst_switch] = column(dst_switch)
        col = columns[dst_switch]
        if col is None:
            continue
        ports, several = col
        for row, port in zip(rows, ports):
            if port is not None:
                row[dst] = port
        for s, candidates in several.items():
            choices.setdefault(s, {})[dst] = candidates
        rows[dst_switch][dst] = node_port[dst]
    return rows, choices


def build_shortest_path_tables(
    topo: Topology,
    avoid_links: Optional[AbstractSet[Tuple[int, int]]] = None,
) -> TableRouting:
    """Deterministic shortest-path tables for every destination node.

    Ties are broken toward the lowest-indexed output port, which makes
    the tables reproducible across runs (the platform initialisation
    step writes them verbatim into the switches).  ``avoid_links``
    routes around failed or reserved directed links ``(a, b)``;
    switches cut off from a destination get no entry for it, so
    routing raises there.
    """
    _outs, preds = _live_links(topo, frozenset(avoid_links or ()))

    def column(dst_switch: int) -> Column:
        return _reverse_bfs_distances(preds, dst_switch)[1], {}

    return TableRouting(_rows_by_destination_switch(topo, column)[0])


def build_multipath_tables(
    topo: Topology,
    max_paths: int = 2,
    avoid_links: Optional[AbstractSet[Tuple[int, int]]] = None,
) -> MultiPathTableRouting:
    """Equal-cost multi-path tables: all minimal next hops, truncated.

    With ``max_paths=2`` this realises the paper's "two routing
    possibilities" on any topology that offers at least two minimal
    next hops.  ``avoid_links`` routes around failed directed links.
    """
    if max_paths < 1:
        raise RoutingError("max_paths must be >= 1")
    outs, preds = _live_links(topo, frozenset(avoid_links or ()))

    def column(dst_switch: int) -> Column:
        # ``hop`` is each switch's first minimal port; where a switch
        # has more, its truncated candidate list replaces it.
        dist, hop = _reverse_bfs_distances(preds, dst_switch)
        several: Dict[int, List[int]] = {}
        for s, d in enumerate(dist):
            if d > 0:
                ports = [
                    port for port, t in outs[s] if dist[t] == d - 1
                ][:max_paths]
                if len(ports) > 1:
                    several[s] = ports
                    hop[s] = None
        return hop, several

    rows, choices = _rows_by_destination_switch(topo, column)
    return MultiPathTableRouting(rows, choices)


def build_updown_tables(
    topo: Topology,
    avoid_links: Optional[AbstractSet[Tuple[int, int]]] = None,
) -> TableRouting:
    """Deadlock-free up*/down* tables for any connected topology.

    BFS shortest-path tables can wormhole-deadlock on fabrics whose
    links close a cycle — a bidirectional ring's clockwise channels
    form a full channel-dependency cycle as soon as every link carries
    some flow, and the platform has no virtual channels to break it
    (the spidergon's native routing assumes them).  Up*/down* (Autonet)
    needs neither: switches are ranked by ``(BFS level from root, id)``,
    every link is *up* (toward lower rank) or *down*, and a legal route
    is up-hops followed by down-hops.  Down-after-up can never close a
    channel cycle, because any cycle would need an up edge after a down
    edge.

    The tables realise the discipline statelessly: at each switch a
    packet descends along a shortest down-only path when its
    destination is down-reachable, and otherwise climbs to the cheapest
    up neighbour.  Once a packet starts descending every later switch
    is still down-reachable (a suffix of a down-only path), so the
    realised route never turns back up.  Routes can be longer than
    graph-shortest — that is the price of deadlock freedom on ring-like
    fabrics; on meshes and trees the root-anchored ranking keeps most
    routes minimal.

    ``avoid_links`` routes around failed directed links.  Ranking,
    descent, and climbing all skip avoided edges, so the discipline
    (and hence deadlock freedom) holds on the surviving fabric.  When
    avoidance disconnects the graph, switches outside the root's
    component — and destinations hosted there — simply get no table
    entries (the router raises on use), mirroring the degraded
    behaviour of :func:`build_shortest_path_tables`.

    The root is the lowest-id switch that still has a live link out —
    switch 0 whenever it is alive — so a fault that kills switch 0
    re-roots the ranking on the surviving fabric instead of severing
    all of it.
    """
    avoid = frozenset(avoid_links or ())
    n = topo.n_switches
    outs, _preds = _live_links(topo, avoid)
    root = next((s for s in range(n) if outs[s]), 0)
    # Rank switches by (BFS level from the root, id); "up" edges point
    # toward strictly lower rank.  ``pos`` is each switch's place in
    # that order (-1 = outside the root's component).
    level = {root: 0}
    frontier = deque([root])
    while frontier:
        s = frontier.popleft()
        for _port, t in outs[s]:
            if t not in level:
                level[t] = level[s] + 1
                frontier.append(t)
    if len(level) < n and not avoid:
        raise RoutingError(
            f"topology is not connected from switch {root}:"
            f" {n - len(level)} switches unreachable"
        )
    by_rank = sorted(level, key=lambda s: (level[s], s))
    pos = [-1] * n
    for i, s in enumerate(by_rank):
        pos[s] = i
    # Every live link out of a ranked switch ends at a ranked switch
    # and is either up (toward lower rank) or down.
    ups: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    down_preds: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for s in by_rank:
        for port, t in outs[s]:
            if pos[t] < pos[s]:
                ups[s].append((port, t))
            else:
                down_preds[t].append((s, port))

    def column(dst_switch: int) -> Column:
        if pos[dst_switch] < 0:
            return None  # severed from the root's component
        # Down-only hop distance to dst_switch (reverse BFS over down
        # edges), with each switch's shortest down step.
        down_dist, down_hop = _reverse_bfs_distances(
            down_preds, dst_switch
        )
        # Total route cost: descend when possible, else climb to the
        # cheapest up neighbour (ties to the lowest port).  Up edges
        # strictly decrease rank, so sweeping switches in rank order
        # resolves the climb recurrence in one pass.
        cost = [-1] * n
        col: Row = [None] * n
        for s in by_rank:
            d = down_dist[s]
            if d >= 0:
                # Committed to descending: shortest down step only.
                cost[s] = d
                col[s] = down_hop[s]
                continue
            best_port, best = None, -1
            for port, t in ups[s]:
                c = cost[t]
                if c >= 0 and (best < 0 or c < best):
                    best_port, best = port, c
            if best_port is None:
                if avoid:
                    continue  # unreachable on the faulted fabric
                raise RoutingError(
                    f"switch {s} has no up link toward the root and"
                    f" cannot reach switch {dst_switch} downward;"
                    f" up*/down* needs bidirectional links"
                )
            cost[s] = best + 1
            col[s] = best_port
        return col, {}

    return TableRouting(_rows_by_destination_switch(topo, column)[0])


def build_tables_from_paths(
    topo: Topology,
    paths: Mapping[Tuple[int, int], Sequence[int]],
) -> TableRouting:
    """Deterministic tables from explicit switch paths per flow.

    ``paths[(src_node, dst_node)]`` is the switch sequence the flow
    follows, starting at the source node's switch and ending at the
    destination node's switch.  Conflicting entries (two flows to the
    same destination demanding different ports at one switch) raise.
    """
    rows: List[Row] = [
        [None] * topo.n_nodes for _ in range(topo.n_switches)
    ]
    for (src, dst), sw_path in paths.items():
        if not sw_path:
            raise RoutingError(f"empty path for flow {src}->{dst}")
        if sw_path[0] != topo.switch_of_node(src):
            raise RoutingError(
                f"path for flow {src}->{dst} starts at switch"
                f" {sw_path[0]}, but node {src} sits on switch"
                f" {topo.switch_of_node(src)}"
            )
        if sw_path[-1] != topo.switch_of_node(dst):
            raise RoutingError(
                f"path for flow {src}->{dst} ends at switch"
                f" {sw_path[-1]}, but node {dst} sits on switch"
                f" {topo.switch_of_node(dst)}"
            )
        hops = list(zip(sw_path, sw_path[1:]))
        for a, b in hops:
            port = topo.output_port_to_switch(a, b)
            existing = rows[a][dst]
            if existing is not None and existing != port:
                raise RoutingError(
                    f"conflicting routes at switch {a} for destination"
                    f" {dst}: ports {existing} and {port}"
                )
            rows[a][dst] = port
        last = sw_path[-1]
        rows[last][dst] = topo.output_port_to_node(last, dst)
    return TableRouting(rows)


# ----------------------------------------------------------------------
# The paper's route cases (Slide 19)
# ----------------------------------------------------------------------
#: Switch paths of the *overlapping* case: all four diagonal flows
#: funnel through the middle column, so links 1->4 and 4->1 each carry
#: two 45% flows = 90% load.
_PAPER_PATHS_OVERLAP: Dict[Tuple[int, int], Tuple[int, ...]] = {
    (0, 7): (0, 1, 4, 5),
    (1, 6): (2, 1, 4, 3),
    (2, 5): (3, 4, 1, 2),
    (3, 4): (5, 4, 1, 0),
}

#: Switch paths of the *disjoint* case (dimension-ordered, X first):
#: no link carries more than one flow, so the maximum link load is 45%.
_PAPER_PATHS_DISJOINT: Dict[Tuple[int, int], Tuple[int, ...]] = {
    (0, 7): (0, 1, 2, 5),
    (1, 6): (2, 1, 0, 3),
    (2, 5): (3, 4, 5, 2),
    (3, 4): (5, 4, 3, 0),
}


#: The paper platform's route cases, in the order help texts list them.
PAPER_CASES = ("overlap", "disjoint", "split")


def paper_routing(topo: Topology, case: str = "overlap") -> TableRouting:
    """Routing tables for the paper's experimental setup.

    ``case`` selects among the two routing possibilities of each flow:

    ``"overlap"``
        All flows share the middle-column links (the 90%-load case the
        congestion and latency figures are measured in).
    ``"disjoint"``
        Dimension-ordered routes; no shared links (the uncongested
        reference case).
    ``"split"``
        A multi-path table holding *both* possibilities; each packet
        picks one by id hash, halving the load on the shared links.
    """
    if case == "overlap":
        return build_tables_from_paths(topo, _PAPER_PATHS_OVERLAP)
    if case == "disjoint":
        return build_tables_from_paths(topo, _PAPER_PATHS_DISJOINT)
    if case == "split":
        rows = build_tables_from_paths(topo, _PAPER_PATHS_OVERLAP).rows
        disjoint = build_tables_from_paths(topo, _PAPER_PATHS_DISJOINT)
        choices: Dict[int, Dict[int, List[int]]] = {}
        for s, (row, other) in enumerate(zip(rows, disjoint.rows)):
            for dst, (port, alt) in enumerate(zip(row, other)):
                if port is None:
                    row[dst] = alt
                elif alt is not None and alt != port:
                    choices.setdefault(s, {})[dst] = [port, alt]
                    row[dst] = None
        return MultiPathTableRouting(rows, choices)
    raise RoutingError(
        f"unknown paper routing case {case!r}; expected one of"
        f" {PAPER_CASES}"
    )
