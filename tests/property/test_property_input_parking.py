"""Property-based parity of input-granular parking.

PR 5 drops event granularity from components to input ports: a blocked
input parks individually with frozen stall deltas while the rest of
its switch keeps streaming.  These tests drive a *mixed-load* fabric —
two flows converging on one output (credit starvation) while a reverse
flow streams through another output of the same switch — and require
the event kernel to stay bit-identical to per-cycle ticking
(``step_reference``) in every stall statistic: per-flit
``stall_cycles``, per-switch ``blocked_flit_cycles`` and
``credit_stall_cycles``, and per-NI ``stall_cycles``; including
*mid-run* settle-on-read snapshots taken while inputs are still
parked, and a statistics reset dropped on a parked stretch.
"""

from hypothesis import given, settings, strategies as st

from repro.core.config import PlatformConfig, TGSpec, TRSpec
from repro.core.platform import build_platform
from repro.stats.congestion import network_congestion_rate


def mixed_load_config(load, buffer_depth, seed, queue_limit=None):
    """A 2x2 mesh where switch-level blocking is *partial* by design.

    Nodes 0 and 1 both flood node 3 (their flows merge on one switch
    output and starve on its credits), while node 3 streams packets
    back to node 0 through a different output of the same switches —
    so a switch regularly holds parked and movable inputs at once.
    Routing is up*/down*: the three flows' BFS-shortest channels close
    a dependency cycle on the 2x2 mesh and would wormhole-deadlock.
    """
    length = 4
    interval = max(length, round(length / load))
    tgs = [
        TGSpec(
            node=0,
            model="uniform",
            params={"length": length, "interval": interval, "dst": 3},
            max_packets=120,
            seed=seed,
        ),
        TGSpec(
            node=1,
            model="uniform",
            params={"length": length, "interval": interval, "dst": 3},
            max_packets=120,
            seed=seed + 1,
        ),
        TGSpec(
            node=3,
            model="uniform",
            params={"length": length, "interval": interval, "dst": 0},
            max_packets=120,
            seed=seed + 2,
        ),
    ]
    if queue_limit is not None:
        for tg in tgs:
            tg.queue_limit = queue_limit
    return PlatformConfig(
        topology="mesh:2:2",
        routing="updown",
        buffer_depth=buffer_depth,
        tgs=tgs,
        trs=[TRSpec(node=0), TRSpec(node=3)],
    )


def capture_packet_stalls(platform, sink):
    """Record every completed packet's per-flit stall counters.

    Flit stalls settle exactly when the flit moves, so the values seen
    at reassembly encode the entire per-input parking settlement
    history; pids are deterministic, making the two runs comparable
    key by key.
    """
    for rx in platform.network.rx:
        original = rx.on_packet

        def hook(packet, now, flits, _orig=original):
            sink[packet.pid] = [f.stall_cycles for f in flits]
            if _orig is not None:
                _orig(packet, now, flits)

        rx.on_packet = hook


def stall_snapshot(platform):
    """Every stall statistic, read mid-run (settle-on-read paths)."""
    net = platform.network
    return {
        "blocked": [sw.blocked_flit_cycles for sw in net.switches],
        "credit": [sw.credit_stall_cycles for sw in net.switches],
        "ni": [ni.stall_cycles for ni in net.nis],
        "gen": [g.backpressure_cycles for g in platform.generators],
        "forwarded": [sw.flits_forwarded for sw in net.switches],
        "buffered": [sw.buffered_flits for sw in net.switches],
        "congestion": network_congestion_rate(net),
    }


def build_pair(make_config):
    """Build (event, reference) platforms for lockstep co-simulation;
    each numbers its own packets, so their pid streams line up."""
    return build_platform(make_config()), build_platform(make_config())


@settings(max_examples=15, deadline=None)
@given(
    load=st.sampled_from([0.5, 0.7, 0.9]),
    buffer_depth=st.sampled_from([1, 2, 4]),
    reset_cycle=st.integers(min_value=100, max_value=1200),
    snap_every=st.sampled_from([64, 101, 250]),
    seed=st.integers(min_value=1, max_value=10_000),
)
def test_mixed_load_parking_matches_per_cycle_ticking(
    load, buffer_depth, reset_cycle, snap_every, seed
):
    """Lockstep co-simulation: the event kernel's per-input parking
    must be invisible at *every* observation point, not just at the
    end — snapshots land mid-stretch while inputs are parked."""
    event, reference = build_pair(
        lambda: mixed_load_config(load, buffer_depth, seed)
    )
    event_stalls, reference_stalls = {}, {}
    capture_packet_stalls(event, event_stalls)
    capture_packet_stalls(reference, reference_stalls)

    saw_input_parking = False
    for k in range(2000):
        if k == reset_cycle:
            # Reset-while-parked: per-flit stalls must survive, the
            # switch/NI windows restart, parked inputs keep
            # accumulating into the fresh window.
            event.reset_statistics()
            reference.reset_statistics()
        event.step()
        reference.step_reference()
        if any(sw.parked_inputs for sw in event.network.switches):
            saw_input_parking = True
        if k % snap_every == 0:
            assert stall_snapshot(event) == stall_snapshot(reference), (
                f"stall statistics diverged at cycle {k}"
            )

    assert saw_input_parking, "scenario never parked an input (vacuous)"
    assert event_stalls == reference_stalls
    assert event.packets_received == reference.packets_received
    # The capture dicts survive statistics resets (a reset dropped
    # after the budgets drain zeroes ``packets_received`` itself).
    assert event_stalls, "no packet ever completed (vacuous)"


@settings(max_examples=10, deadline=None)
@given(
    buffer_depth=st.sampled_from([1, 2]),
    queue_limit=st.sampled_from([8, 16]),
    seed=st.integers(min_value=1, max_value=10_000),
)
def test_saturated_mixed_load_with_backpressure(
    buffer_depth, queue_limit, seed
):
    """Shallow buffers + tight NI queues: input parking, NI parking
    and generator backpressure parking all engage together; the final
    statistics must still match the scan-everything oracle exactly."""
    event, reference = build_pair(
        lambda: mixed_load_config(
            0.9, buffer_depth, seed, queue_limit=queue_limit
        )
    )
    for _ in range(2500):
        event.step()
        reference.step_reference()
    assert stall_snapshot(event) == stall_snapshot(reference)
    assert event.packets_sent == reference.packets_sent
    assert event.packets_received == reference.packets_received
    assert event.packets_received > 0
    assert (
        event.network.in_flight_flits
        == event.network.scan_in_flight_flits()
    )


def test_partial_parking_coexists_with_streaming():
    """Non-vacuity for the tentpole's core claim: some switch holds a
    parked input and a movable input in the same cycle, and still
    forwards flits that cycle (the reference kernel would have
    rescanned the parked head; the event kernel provably does not)."""
    platform = build_platform(mixed_load_config(0.9, 2, seed=7))
    saw_partial_with_progress = False
    for _ in range(2500):
        before = [sw.flits_forwarded for sw in platform.network.switches]
        platform.step()
        for sw, prior in zip(platform.network.switches, before):
            if (
                sw.parked_inputs
                and sw._scan
                and sw.flits_forwarded > prior
            ):
                saw_partial_with_progress = True
    assert saw_partial_with_progress
