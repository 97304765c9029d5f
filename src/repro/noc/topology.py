"""Switch topologies.

The emulation platform instantiates a *network of switches* whose
topology is a platform-compilation parameter (Slide 6: "switch
topology").  A :class:`Topology` is a directed multigraph of switches
plus the attachment points of network interfaces (traffic generators and
receptors are nodes hanging off switches).

Factories are provided for the standard NoC fabrics (mesh, torus, ring,
star, fully connected, spidergon) and for the paper's 6-switch
experimental platform (:func:`paper_topology`).  The paper's figure is
not reproduced in the available text, so the 6-switch arrangement is a
documented reconstruction: a 2x3 mesh whose four corner switches host
one traffic generator and one traffic receptor each, which yields
exactly the properties Slide 19 describes — each flow has two routing
possibilities, and with the "overlapping" route case two inter-switch
links (the middle-column links) carry two 45% flows each, i.e. 90% load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple


class TopologyError(ValueError):
    """Raised for inconsistent topology construction or queries."""


@dataclass(frozen=True)
class OutputEndpoint:
    """What a switch output port drives: another switch or a local node."""

    kind: str  # "switch" | "node"
    target: int  # switch id or node id
    delay: int = 1


@dataclass(frozen=True)
class InputSource:
    """What feeds a switch input port: another switch or a local node."""

    kind: str  # "switch" | "node"
    source: int  # switch id or node id
    delay: int = 1


class Topology:
    """A directed graph of switches with node (NI) attachment points.

    Ports are allocated implicitly in registration order: every
    ``add_edge`` consumes one output port on the source switch and one
    input port on the destination switch; every ``attach`` consumes one
    input port (node injects) and one output port (node ejects) on its
    switch.  This mirrors the platform-compilation step that fixes the
    "number of inputs / number of outputs" switch parameters.
    """

    def __init__(self, n_switches: int, name: str = "") -> None:
        if n_switches < 1:
            raise TopologyError(
                f"topology needs >= 1 switch, got {n_switches}"
            )
        self.n_switches = n_switches
        self.name = name
        self.switch_outputs: List[List[OutputEndpoint]] = [
            [] for _ in range(n_switches)
        ]
        self.switch_inputs: List[List[InputSource]] = [
            [] for _ in range(n_switches)
        ]
        self.node_switch: List[int] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _check_switch(self, s: int) -> None:
        if not 0 <= s < self.n_switches:
            raise TopologyError(
                f"switch {s} out of range [0, {self.n_switches})"
            )

    def add_edge(
        self, a: int, b: int, delay: int = 1, bidirectional: bool = False
    ) -> None:
        """Add a directed link ``a -> b`` (and ``b -> a`` if bidirectional)."""
        self._check_switch(a)
        self._check_switch(b)
        if a == b:
            raise TopologyError(f"self-loop on switch {a} is not allowed")
        self.switch_outputs[a].append(OutputEndpoint("switch", b, delay))
        self.switch_inputs[b].append(InputSource("switch", a, delay))
        if bidirectional:
            self.switch_outputs[b].append(OutputEndpoint("switch", a, delay))
            self.switch_inputs[a].append(InputSource("switch", b, delay))

    def attach(self, switch: int) -> int:
        """Attach a new node (NI endpoint) to ``switch`` over one-cycle
        links; return node id."""
        self._check_switch(switch)
        node = len(self.node_switch)
        self.node_switch.append(switch)
        self.switch_inputs[switch].append(InputSource("node", node, 1))
        self.switch_outputs[switch].append(OutputEndpoint("node", node, 1))
        return node

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.node_switch)

    def n_inputs(self, switch: int) -> int:
        self._check_switch(switch)
        return len(self.switch_inputs[switch])

    def n_outputs(self, switch: int) -> int:
        self._check_switch(switch)
        return len(self.switch_outputs[switch])

    def switch_of_node(self, node: int) -> int:
        if not 0 <= node < self.n_nodes:
            raise TopologyError(f"node {node} out of range [0, {self.n_nodes})")
        return self.node_switch[node]

    def output_port_to_switch(self, a: int, b: int) -> int:
        """Output port index on ``a`` of the (first) link ``a -> b``."""
        self._check_switch(a)
        for port, ep in enumerate(self.switch_outputs[a]):
            if ep.kind == "switch" and ep.target == b:
                return port
        raise TopologyError(f"no link {a} -> {b}")

    def output_port_to_node(self, switch: int, node: int) -> int:
        """Output port index on ``switch`` driving local node ``node``."""
        self._check_switch(switch)
        for port, ep in enumerate(self.switch_outputs[switch]):
            if ep.kind == "node" and ep.target == node:
                return port
        raise TopologyError(f"node {node} is not attached to switch {switch}")

    def switch_edges(self) -> List[Tuple[int, int, int]]:
        """All directed switch-to-switch links as ``(a, b, delay)``."""
        edges = []
        for a in range(self.n_switches):
            for ep in self.switch_outputs[a]:
                if ep.kind == "switch":
                    edges.append((a, ep.target, ep.delay))
        return edges

    def nodes_on_switch(self, switch: int) -> List[int]:
        self._check_switch(switch)
        return [
            node
            for node, sw in enumerate(self.node_switch)
            if sw == switch
        ]

    def validate(self) -> None:
        """Check every switch has at least one input and one output."""
        for s in range(self.n_switches):
            if not self.switch_inputs[s]:
                raise TopologyError(f"switch {s} has no inputs")
            if not self.switch_outputs[s]:
                raise TopologyError(f"switch {s} has no outputs")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Topology({self.name!r}, switches={self.n_switches},"
            f" nodes={self.n_nodes})"
        )


# ----------------------------------------------------------------------
# Standard fabric factories
# ----------------------------------------------------------------------
def mesh(
    width: int, height: int, nodes_per_switch: int = 1, link_delay: int = 1
) -> Topology:
    """A ``width x height`` 2D mesh; switch ``(x, y)`` has id ``y*width+x``."""
    if width < 1 or height < 1:
        raise TopologyError("mesh dimensions must be >= 1")
    topo = Topology(width * height, name=f"mesh{width}x{height}")
    for y in range(height):
        for x in range(width):
            s = y * width + x
            if x + 1 < width:
                topo.add_edge(s, s + 1, delay=link_delay, bidirectional=True)
            if y + 1 < height:
                topo.add_edge(
                    s, s + width, delay=link_delay, bidirectional=True
                )
    for s in range(width * height):
        for _ in range(nodes_per_switch):
            topo.attach(s)
    return topo


def torus(
    width: int, height: int, nodes_per_switch: int = 1, link_delay: int = 1
) -> Topology:
    """A 2D torus (mesh with wrap-around links)."""
    if width < 3 or height < 3:
        raise TopologyError(
            "torus dimensions must be >= 3 to avoid duplicate links"
        )
    topo = Topology(width * height, name=f"torus{width}x{height}")
    for y in range(height):
        for x in range(width):
            s = y * width + x
            right = y * width + (x + 1) % width
            down = ((y + 1) % height) * width + x
            topo.add_edge(s, right, delay=link_delay, bidirectional=True)
            topo.add_edge(s, down, delay=link_delay, bidirectional=True)
    for s in range(width * height):
        for _ in range(nodes_per_switch):
            topo.attach(s)
    return topo


def ring(n: int, nodes_per_switch: int = 1, link_delay: int = 1) -> Topology:
    """A bidirectional ring of ``n`` switches."""
    if n < 3:
        raise TopologyError("ring needs >= 3 switches")
    topo = Topology(n, name=f"ring{n}")
    for s in range(n):
        topo.add_edge(s, (s + 1) % n, delay=link_delay, bidirectional=True)
    for s in range(n):
        for _ in range(nodes_per_switch):
            topo.attach(s)
    return topo


def star(n_leaves: int, link_delay: int = 1) -> Topology:
    """One hub switch (id 0) with ``n_leaves`` leaf switches around it."""
    if n_leaves < 1:
        raise TopologyError("star needs >= 1 leaf")
    topo = Topology(n_leaves + 1, name=f"star{n_leaves}")
    for leaf in range(1, n_leaves + 1):
        topo.add_edge(0, leaf, delay=link_delay, bidirectional=True)
    for leaf in range(1, n_leaves + 1):
        topo.attach(leaf)
    return topo


def fully_connected(
    n: int, nodes_per_switch: int = 1, link_delay: int = 1
) -> Topology:
    """All-to-all switch graph (every ordered pair linked)."""
    if n < 2:
        raise TopologyError("fully connected graph needs >= 2 switches")
    topo = Topology(n, name=f"full{n}")
    for a in range(n):
        for b in range(n):
            if a != b:
                topo.add_edge(a, b, delay=link_delay)
    for s in range(n):
        for _ in range(nodes_per_switch):
            topo.attach(s)
    return topo


def tree(arity: int, depth: int, link_delay: int = 1) -> Topology:
    """A complete switch tree with nodes on the leaves.

    ``depth`` counts switch levels (>= 1); the root is switch 0,
    children of switch ``s`` are ``s * arity + 1 .. s * arity + arity``
    in level order.  Leaf switches carry one node each.  Trees model
    the hierarchical interconnects SoC bridges produce and give the
    routing builders a topology with a single path per pair (useful to
    contrast against the multi-path mesh cases).
    """
    if arity < 2:
        raise TopologyError("tree arity must be >= 2")
    if depth < 1:
        raise TopologyError("tree depth must be >= 1")
    n_switches = (arity**depth - 1) // (arity - 1)
    topo = Topology(n_switches, name=f"tree{arity}x{depth}")
    first_leaf = (arity ** (depth - 1) - 1) // (arity - 1)
    for s in range(first_leaf):
        for child in range(s * arity + 1, s * arity + arity + 1):
            topo.add_edge(s, child, delay=link_delay, bidirectional=True)
    for s in range(first_leaf, n_switches):
        topo.attach(s)
    return topo


def spidergon(n: int, link_delay: int = 1) -> Topology:
    """Spidergon: even-sized ring plus cross links to the antipode."""
    if n < 4 or n % 2:
        raise TopologyError("spidergon needs an even switch count >= 4")
    topo = Topology(n, name=f"spidergon{n}")
    for s in range(n):
        topo.add_edge(s, (s + 1) % n, delay=link_delay, bidirectional=True)
    half = n // 2
    for s in range(half):
        topo.add_edge(s, s + half, delay=link_delay, bidirectional=True)
    for s in range(n):
        topo.attach(s)
    return topo


# ----------------------------------------------------------------------
# The paper's experimental platform (Slide 19)
# ----------------------------------------------------------------------
#: Switch grid of the reconstructed paper platform::
#:
#:     0 -- 1 -- 2        corner switches 0, 2, 3, 5 each host one
#:     |    |    |        traffic generator and one traffic receptor
#:     3 -- 4 -- 5
PAPER_GRID = (3, 2)

#: The four flows of the experimental setup: each traffic generator
#: sends to the receptor on the diagonally opposite corner (3 hops),
#: given as (tg_index, tr_index) pairs.
PAPER_FLOWS: Tuple[Tuple[int, int], ...] = ((0, 3), (1, 2), (2, 1), (3, 0))

#: Injection load per generator as a fraction of link bandwidth.
PAPER_TG_LOAD = 0.45

#: Target load on the two shared middle-column links in the
#: "overlapping routes" case: two 45% flows each.
PAPER_HOT_LINK_LOAD = 0.90


def paper_topology(link_delay: int = 1) -> Topology:
    """The 6-switch, 4-TG, 4-TR platform of the paper's evaluation.

    Returns a 2x3 mesh with eight attached nodes.  Nodes 0-3 are the
    traffic-generator endpoints on corner switches (0, 2, 3, 5 in grid
    order) and nodes 4-7 are the traffic-receptor endpoints on the same
    corners; :data:`PAPER_FLOWS` gives the generator-to-receptor pairing
    as (tg_index, tr_index) offsets into those two groups.  Every flow
    crosses the mesh diagonally (3 hops); the platform routing tables
    expose two routing possibilities per flow (see
    ``repro.noc.routing.paper_routing``): an *overlapping* case where
    all four flows funnel through the middle-column links 1<->4, loading
    those two links to 2 x 45% = 90% exactly as Slide 19 states, and a
    *disjoint* dimension-ordered case where no link carries more than
    one flow.
    """
    width, height = PAPER_GRID
    topo = Topology(width * height, name="paper6")
    for y in range(height):
        for x in range(width):
            s = y * width + x
            if x + 1 < width:
                topo.add_edge(s, s + 1, delay=link_delay, bidirectional=True)
            if y + 1 < height:
                topo.add_edge(
                    s, s + width, delay=link_delay, bidirectional=True
                )
    corners = [0, 2, 3, 5]
    for corner in corners:  # nodes 0..3: TG endpoints
        topo.attach(corner)
    for corner in corners:  # nodes 4..7: TR endpoints
        topo.attach(corner)
    return topo


def paper_flow_pairs() -> List[Tuple[int, int]]:
    """(source node, destination node) pairs of the four paper flows."""
    return [(tg, 4 + tr) for tg, tr in PAPER_FLOWS]


def paper_hot_links() -> List[Tuple[int, int]]:
    """The two middle-column links that reach 90% load (Slide 19)."""
    return [(1, 4), (4, 1)]
