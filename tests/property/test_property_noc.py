"""Property-based tests of the NoC substrate invariants."""

from hypothesis import given, settings, strategies as st

from repro.noc.flit import Packet
from repro.noc.network import Network
from repro.noc.routing import (
    TableRouting,
    build_multipath_tables,
    build_shortest_path_tables,
)
from repro.noc.switch import Switch, SwitchConfig, SwitchingMode
from repro.noc.topology import mesh, ring, torus


# ----------------------------------------------------------------------
# Packet segmentation
# ----------------------------------------------------------------------
@given(length=st.integers(min_value=1, max_value=64))
def test_segmentation_is_lossless(length):
    p = Packet(src=0, dst=1, length=length)
    flits = p.flits()
    assert len(flits) == length
    assert flits[0].is_head
    assert flits[-1].is_tail
    assert sum(f.is_head for f in flits) == 1
    assert sum(f.is_tail for f in flits) == 1
    assert [f.seq for f in flits] == list(range(length))


# ----------------------------------------------------------------------
# FIFO behaviour under arbitrary operation sequences
# ----------------------------------------------------------------------
@given(
    capacity=st.integers(min_value=1, max_value=16),
    ops=st.lists(st.booleans(), max_size=100),
)
def test_fifo_order_preserved(capacity, ops):
    """Pushes (True) and pops (False) in any legal order keep FIFO order.

    A push is a flit arriving at a one-port switch (``Switch.receive``),
    a pop one cycle of it: its output has unlimited credits, so each
    traverse moves the head flit out."""
    sw = Switch(
        0,
        SwitchConfig(n_inputs=1, n_outputs=1, buffer_depth=capacity),
        TableRouting([[0, 0]]),
    )
    cycle = [0]
    sw._clock = lambda: cycle[0]
    popped = []
    sw.connect_output(0, lambda flit, now: popped.append(flit), credits=None)
    buf = sw.inputs[0]
    source = iter(Packet(src=0, dst=1, length=200).flits())
    pushed = []
    for push in ops:
        if push and not buf.is_full:
            f = next(source)
            sw.receive(0, f)
            pushed.append(f)
        elif not push and not buf.is_empty:
            assert sw.traverse(cycle[0]) == 1
            cycle[0] += 1
    assert popped == pushed[: len(popped)]
    assert buf.total_pops == len(popped)
    assert len(buf) == len(pushed) - len(popped)
    assert len(buf) <= capacity


# ----------------------------------------------------------------------
# Routing tables always reach the destination
# ----------------------------------------------------------------------
_topologies = st.sampled_from(
    [mesh(2, 2), mesh(3, 2), mesh(3, 3), ring(4), ring(6), torus(3, 3)]
)


@given(topo=_topologies, data=st.data())
@settings(max_examples=40, deadline=None)
def test_shortest_path_tables_reach_destination(topo, data):
    routing = build_shortest_path_tables(topo)
    src = data.draw(
        st.integers(min_value=0, max_value=topo.n_nodes - 1)
    )
    dst = data.draw(
        st.integers(min_value=0, max_value=topo.n_nodes - 1)
    )
    flit = Packet(src=src, dst=dst, length=1).flits()[0]
    switch = topo.switch_of_node(src)
    for _hop in range(topo.n_switches + 1):
        port = routing.output_port(switch, flit)
        ep = topo.switch_outputs[switch][port]
        if ep.kind == "node":
            assert ep.target == dst
            return
        switch = ep.target
    raise AssertionError(f"packet looped: {src}->{dst}")


@given(topo=_topologies, data=st.data())
@settings(max_examples=40, deadline=None)
def test_multipath_tables_only_offer_minimal_hops(topo, data):
    routing = build_multipath_tables(topo, max_paths=4)
    shortest = build_shortest_path_tables(topo)
    dst = data.draw(
        st.integers(min_value=0, max_value=topo.n_nodes - 1)
    )
    # Any candidate port leads strictly closer: walking any mixture of
    # candidates terminates within the network diameter.
    flit = Packet(src=0, dst=dst, length=1).flits()[0]
    switch = topo.switch_of_node(0)
    for _hop in range(topo.n_switches + 1):
        ports = routing.ports_for(switch, dst)
        assert ports
        port = data.draw(st.sampled_from(ports))
        ep = topo.switch_outputs[switch][port]
        if ep.kind == "node":
            assert ep.target == dst
            return
        switch = ep.target
    raise AssertionError("multipath walk failed to terminate")


# ----------------------------------------------------------------------
# Whole-network conservation under random workloads
# ----------------------------------------------------------------------
@given(
    data=st.data(),
    mode=st.sampled_from(
        [SwitchingMode.WORMHOLE, SwitchingMode.STORE_AND_FORWARD]
    ),
)
@settings(max_examples=25, deadline=None)
def test_network_conserves_flits(data, mode):
    topo = mesh(2, 2)
    routing = build_shortest_path_tables(topo)
    depth = 8
    net = Network(topo, routing, buffer_depth=depth, mode=mode)
    n_packets = data.draw(st.integers(min_value=1, max_value=30))
    total_flits = 0
    for _ in range(n_packets):
        src = data.draw(st.integers(min_value=0, max_value=3))
        dst = data.draw(st.integers(min_value=0, max_value=3))
        length = data.draw(st.integers(min_value=1, max_value=depth))
        net.offer(Packet(src=src, dst=dst, length=length))
        total_flits += length
    net.drain()
    received = sum(rx.received_flits for rx in net.rx)
    assert received == total_flits
    assert sum(rx.received_packets for rx in net.rx) == n_packets


@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_wormhole_delivers_contiguous_packets_per_node(data):
    """At any single ejection port, wormhole flits never interleave."""
    topo = mesh(2, 2)
    routing = build_shortest_path_tables(topo)
    net = Network(topo, routing, buffer_depth=4)
    orders = []
    for node in range(4):
        net.rx[node].on_packet = (
            lambda p, now, fs, _o=orders: _o.append(fs)
        )
    for _ in range(data.draw(st.integers(min_value=2, max_value=20))):
        src = data.draw(st.integers(min_value=0, max_value=3))
        dst = data.draw(st.integers(min_value=0, max_value=3))
        net.offer(Packet(src=src, dst=dst, length=3))
    net.drain()
    for flits in orders:
        assert [f.seq for f in flits] == [0, 1, 2]
