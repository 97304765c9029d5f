"""Property-based parity of the event-driven kernel.

Randomised small platforms — topology, arbitration, switching mode and
traffic model all drawn by hypothesis — must produce identical
per-packet latency statistics and final counters whether stepped by the
event-driven :meth:`Network.step` or the scan-everything
:meth:`Network.step_reference` oracle.
"""

from hypothesis import given, settings, strategies as st

from repro.core.config import PlatformConfig, TGSpec, TRSpec
from repro.core.platform import build_platform
from repro.receptors.tracedriven import TraceDrivenReceptor


def small_config(
    topo_kind, arbitration, switching, model, load, seed
):
    """A 2x2-mesh / 4-ring platform with two crossing flows."""
    topology = "mesh:2:2" if topo_kind == "mesh" else "ring:4"
    params = {"length": 3}
    if model == "uniform":
        params["interval"] = max(3, round(3 / load))
    elif model == "onoff":
        params["packets_per_burst"] = 3
        params["load"] = load
    else:  # burst / poisson
        params["load"] = load
    tgs = [
        TGSpec(
            node=0,
            model=model,
            params={**params, "dst": 3},
            max_packets=40,
            seed=seed,
        ),
        TGSpec(
            node=1,
            model=model,
            params={**params, "dst": 2},
            max_packets=40,
            seed=seed + 1,
        ),
    ]
    trs = [TRSpec(node=2), TRSpec(node=3)]
    return PlatformConfig(
        topology=topology,
        routing="shortest",
        buffer_depth=4,
        arbitration=arbitration,
        switching=switching,
        tgs=tgs,
        trs=trs,
    )


def final_state(platform):
    net = platform.network
    state = {
        "sent": platform.packets_sent,
        "received": platform.packets_received,
        "in_flight": net.in_flight_flits,
        "scan": net.scan_in_flight_flits(),
        "blocked": net.total_blocked_flit_cycles,
        "switches": [
            (sw.flits_forwarded, sw.blocked_flit_cycles, sw.buffered_flits)
            for sw in net.switches
        ],
        "links": [
            (link.flits_carried, link.busy_cycles) for link in net.links
        ],
        "nis": [
            (ni.injected_flits, ni.stall_cycles) for ni in net.nis
        ],
        "generators": [
            (g.packets_sent, g.flits_sent, g.backpressure_cycles)
            for g in platform.generators
        ],
    }
    for receptor in platform.receptors:
        if isinstance(receptor, TraceDrivenReceptor):
            lat = receptor.latency
            state[f"lat{receptor.node}"] = (
                lat.count,
                lat.total_latency,
                lat.min_latency,
                lat.max_latency,
            )
    return state


@settings(max_examples=30, deadline=None)
@given(
    topo_kind=st.sampled_from(["mesh", "ring"]),
    arbitration=st.sampled_from(
        ["round_robin", "fixed_priority", "matrix"]
    ),
    switching=st.sampled_from(["wormhole", "store_and_forward"]),
    model=st.sampled_from(["uniform", "burst", "poisson", "onoff"]),
    load=st.sampled_from([0.05, 0.2, 0.5, 0.8]),
    seed=st.integers(min_value=1, max_value=10_000),
)
def test_random_platforms_step_identically(
    topo_kind, arbitration, switching, model, load, seed
):
    results = []
    for reference in (False, True):
        platform = build_platform(
            small_config(
                topo_kind, arbitration, switching, model, load, seed
            )
        )
        step = platform.step_reference if reference else platform.step
        for _ in range(2500):
            step()
        results.append(final_state(platform))
    event, oracle = results
    assert event == oracle
    # Both runs must have actually exercised the fabric.
    assert event["sent"] > 0
    assert event["in_flight"] == event["scan"]


@settings(max_examples=25, deadline=None)
@given(
    topo_kind=st.sampled_from(["mesh", "ring"]),
    switching=st.sampled_from(["wormhole", "store_and_forward"]),
    buffer_depth=st.sampled_from([1, 2, 4]),
    queue_limit=st.sampled_from([8, 16, 64]),
    reset_cycle=st.integers(min_value=50, max_value=2000),
    seed=st.integers(min_value=1, max_value=10_000),
)
def test_saturated_platforms_with_reset_step_identically(
    topo_kind, switching, buffer_depth, queue_limit, reset_cycle, seed
):
    """Parked-component coverage: 90% load with shallow buffers and
    tight NI queues drives full-block/unblock cycles, NI credit
    starvation and generator backpressure parking; a statistics reset
    dropped on a random cycle lands on parked components.  Everything
    must stay bit-identical to the scan-everything oracle."""
    results = []
    for reference in (False, True):
        config = small_config(
            topo_kind, "round_robin", switching, "uniform", 0.9, seed
        )
        for tg in config.tgs:
            tg.queue_limit = queue_limit
        # Store-and-forward needs whole packets (length 3) to fit.
        config.buffer_depth = (
            buffer_depth
            if switching == "wormhole"
            else max(buffer_depth, 3)
        )
        platform = build_platform(config)
        step = platform.step_reference if reference else platform.step
        for k in range(2500):
            if k == reset_cycle:
                platform.reset_statistics()
            step()
        results.append(final_state(platform))
    event, oracle = results
    assert event == oracle
    assert event["sent"] > 0
    assert event["in_flight"] == event["scan"]
