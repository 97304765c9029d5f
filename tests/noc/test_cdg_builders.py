"""The per-channel dependency graph builder against the per-destination
reference (``cdg_reference.py``): same channels, same dependency sets,
same deadlock verdicts, on random fabrics, routings and destination
lists.  The hypothesis profile is small and derandomised so tier-1 sees
the same examples every run."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cdg_reference import reference_channel_graph
from repro.core.config import resolve_topology_spec
from repro.core.platform import build_platform
from repro.experiments.spec import ScenarioSpec
from repro.noc.deadlock import (
    _channel_graph,
    find_dependency_cycle,
    is_deadlock_free,
)
from repro.noc.routing import (
    RoutingError,
    RoutingFunction,
    XYRouting,
    build_multipath_tables,
    build_shortest_path_tables,
    build_updown_tables,
    paper_routing,
)
from repro.noc.topology import Topology, mesh, paper_topology

PROFILE = settings(max_examples=60, derandomize=True, deadline=None)


class ProbedOnly(RoutingFunction):
    """A routing that answers only ``ports_for``: its ``dense_row`` is
    the base class's ``None``, so every route is probed."""

    def __init__(self, inner: RoutingFunction) -> None:
        self.inner = inner

    def ports_for(self, switch, dst):
        return self.inner.ports_for(switch, dst)


def _outcome(build, *args):
    """The builder's graph, or the type of what it raised (a routing
    may refuse a destination outside the fabric)."""
    try:
        return build(*args)
    except Exception as exc:
        return type(exc)


def assert_same_graph(topo, routing, destinations=None):
    args = (topo, routing, destinations)
    want = _outcome(reference_channel_graph, *args)
    assert _outcome(_channel_graph, *args) == want
    if isinstance(want, tuple):
        free = find_dependency_cycle(dict(enumerate(want[1]))) is None
        assert is_deadlock_free(*args) == free


@st.composite
def fabrics(draw):
    """A connected irregular fabric: a random spanning tree of
    bidirectional links, extra one-way and parallel links, and 0-3
    nodes per switch (at least one node in all)."""
    n = draw(st.integers(min_value=1, max_value=7))
    topo = Topology(n, name="random")
    for s in range(1, n):
        topo.add_edge(
            draw(st.integers(min_value=0, max_value=s - 1)), s,
            bidirectional=True,
        )
    if n > 1:
        pairs = st.tuples(
            st.integers(min_value=0, max_value=n - 1),
            st.integers(min_value=0, max_value=n - 1),
        ).filter(lambda ab: ab[0] != ab[1])
        for a, b in draw(st.lists(pairs, max_size=6)):
            topo.add_edge(a, b, bidirectional=draw(st.booleans()))
    counts = draw(st.lists(
        st.integers(min_value=0, max_value=3), min_size=n, max_size=n
    ))
    counts[draw(st.integers(min_value=0, max_value=n - 1))] += 1
    for s, count in enumerate(counts):
        for _ in range(count):
            topo.attach(s)
    return topo


def destination_lists(n_nodes):
    """``None`` (every node) or a list with duplicates and ids outside
    ``[0, n_nodes)``."""
    return st.none() | st.lists(
        st.integers(min_value=-2, max_value=n_nodes + 2), max_size=2 * n_nodes
    )


def avoided_links(draw, topo):
    links = sorted({
        (s, ep.target)
        for s in range(topo.n_switches)
        for ep in topo.switch_outputs[s]
        if ep.kind == "switch"
    })
    if not links:
        return frozenset()
    return frozenset(draw(st.lists(st.sampled_from(links), max_size=3)))


BUILDERS = {
    "shortest": lambda topo, avoid, data: build_shortest_path_tables(
        topo, avoid_links=avoid
    ),
    "multipath": lambda topo, avoid, data: build_multipath_tables(
        topo,
        max_paths=data.draw(st.integers(min_value=2, max_value=3)),
        avoid_links=avoid,
    ),
    "updown": lambda topo, avoid, data: build_updown_tables(
        topo, avoid_links=avoid
    ),
}


@PROFILE
@given(
    topo=fabrics(),
    builder=st.sampled_from(sorted(BUILDERS)),
    probed=st.booleans(),
    data=st.data(),
)
def test_table_routings_on_random_fabrics(topo, builder, probed, data):
    avoid = avoided_links(data.draw, topo)
    try:
        routing = BUILDERS[builder](topo, avoid, data)
    except RoutingError:
        assume(False)
    if probed:
        routing = ProbedOnly(routing)
    destinations = data.draw(destination_lists(topo.n_nodes))
    assert_same_graph(topo, routing, destinations)


@PROFILE
@given(
    width=st.integers(min_value=1, max_value=4),
    height=st.integers(min_value=1, max_value=4),
    nodes=st.integers(min_value=1, max_value=2),
    data=st.data(),
)
def test_xy_routing(width, height, nodes, data):
    topo = mesh(width, height, nodes_per_switch=nodes)
    routing = XYRouting(topo, width, height)
    assert_same_graph(
        topo, routing, data.draw(destination_lists(topo.n_nodes))
    )


@PROFILE
@given(
    case=st.sampled_from(["overlap", "disjoint", "split"]),
    probed=st.booleans(),
    data=st.data(),
)
def test_paper_cases(case, probed, data):
    topo = paper_topology()
    routing = paper_routing(topo, case)
    if probed:
        routing = ProbedOnly(routing)
    assert_same_graph(
        topo, routing, data.draw(destination_lists(topo.n_nodes))
    )


def test_paper_split_rows_hold_none():
    """The split case reaches the probed path of the new builder."""
    topo = paper_topology()
    routing = paper_routing(topo, "split")
    assert any(
        None in routing.dense_row(s, topo.n_nodes)
        for s in range(topo.n_switches)
    )
    assert_same_graph(topo, routing)


@pytest.mark.parametrize(
    "spec", ["mesh:6:6", "torus:4:4", "ring:6", "spidergon:8", "tree:2:3"]
)
@pytest.mark.parametrize(
    "builder", [build_shortest_path_tables, build_multipath_tables]
)
def test_named_fabrics(spec, builder):
    topo = resolve_topology_spec(spec)
    assert_same_graph(topo, builder(topo))
    assert_same_graph(topo, builder(topo), [0, 0, topo.n_nodes - 1, -1])


class TestWideSwitch:
    """A hub with 255 or more ports does not fit the byte-coded rows."""

    def test_star_300_graph_equals_the_reference(self):
        topo = resolve_topology_spec("star:300")
        assert topo.n_outputs(0) >= 300
        routing = build_shortest_path_tables(topo)
        assert_same_graph(topo, routing)
        assert_same_graph(topo, routing, [0, 150, 299, 299, 400])

    def test_star_300_builds(self):
        spec = ScenarioSpec(topology="star:300", packets=2)
        platform = build_platform(spec.to_platform_config())
        assert len(platform.network.switches) == 301

