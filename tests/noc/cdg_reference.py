"""The per-destination channel dependency graph builder.

This is the builder :mod:`repro.noc.deadlock` used before it built the
graph per channel: for every destination it walks every switch and adds
the next hops to each incoming channel's dependencies, one set update
per (destination, switch) pair.  The deadlock tests compare the two
builders' edge sets and verdicts on random inputs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.noc.deadlock import Channel
from repro.noc.routing import TableRouting
from repro.noc.topology import Topology


def reference_channel_graph(
    topology: Topology,
    routing: TableRouting,
    destinations: Optional[Sequence[int]],
) -> Tuple[List[Channel], List[Set[int]]]:
    """The dependency graph over integer channel ids.

    Returns the channels (id -> ``(a, b)``) and, per id, the ids it
    depends on.  Each switch's routes are read from its dense
    ``dst -> port`` row (:meth:`TableRouting.dense_row`), which is the
    table itself, not a copy; only ``None`` entries — multipath
    choices, missing routes — ask :meth:`TableRouting.ports_for`.
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
