"""Restore: rebuild a platform that resumes bit-identically.

``restore(checkpoint)`` builds a *fresh* platform from the embedded
spec (same constructor path as a cold run, so all structure, hooks and
closures are wired exactly as ``build_platform`` wires them), then
overlays the captured mutable state in dependency order:

1. structural cross-checks (component counts, wheel geometry) — any
   drift between the spec's platform and the snapshot is a clean
   :class:`CheckpointError`, never a partial restore;
2. the packet registry: each pid's :class:`Packet` is materialized
   once and its eager flit list shared by every site that references
   ``(pid, seq)`` — so a parked head is *the same object* as the
   FIFO head it froze, exactly as in the original run;
3. links, switches (FIFOs, per-input routes and park records, output
   credits/locks, arbiter rotation, wake lists), NIs, reassembly
   partials, the delivery wheels (credit entries resolved to the new
   platform's structural hook tuples *before* fault re-application
   detaches any), active lists, generators + traffic-model caches +
   LFSR registers, platform poll caches, receptor analyzers;
4. fault state: a new :class:`FaultInjector` on the new platform,
   cursor/report/flaky/recovery state overlaid, downed links'
   credit hooks detached through the saved-credit store, and — when
   any applied event repaired routes — the route tables rebuilt with
   the current dead-pair avoid set through the injector's own build
   path (family tables, deadlock re-vet, up*/down* fallback) and
   hot-swapped without touching the restored per-input route cache;
5. telemetry: a new :class:`WindowedMetrics` with the captured
   boundaries, closed records, and the stored last-boundary base
   reading (the checkpoint cycle can fall mid-window, so the base is
   state, not something to recompute);
6. the global packet-id allocator, repositioned so future pids
   continue the original sequence.

The returned engine carries the injector (if any) so
:meth:`EmulationEngine.run` resumes the fault schedule mid-flight
instead of restarting it.
"""

import itertools
from typing import Any, Dict, List, Tuple

from repro.core.engine import EmulationEngine
from repro.core.platform import EmulationPlatform, build_platform
from repro.faults.report import (
    FaultEventRecord,
    FaultReport,
    FaultWindow,
)
from repro.faults.schedule import FaultSchedule
from repro.noc import flit as flit_mod
from repro.noc.flit import Packet
from repro.telemetry import WindowedMetrics
from repro.telemetry.windows import WindowRecord

from .errors import CheckpointError
from .record import Checkpoint

__all__ = ["restore"]


class _PacketRegistry:
    """pid -> materialized flit list, each packet built exactly once."""

    def __init__(self, records: List[list]):
        self._records = {rec[0]: rec for rec in records}
        self._flits: Dict[int, list] = {}

    def flit(self, pid: int, seq: int, stall: int = None):
        flits = self._flits.get(pid)
        if flits is None:
            rec = self._records.get(pid)
            if rec is None:
                raise CheckpointError(
                    f"state references unknown packet pid {pid}"
                )
            packet = Packet(
                src=rec[1],
                dst=rec[2],
                length=rec[3],
                injection_cycle=rec[4],
                wire_entry_cycle=rec[5],
                burst_id=rec[6],
                pid=pid,
            )
            flits = self._flits[pid] = packet.flits()
        try:
            flit = flits[seq]
        except IndexError:
            raise CheckpointError(
                f"packet {pid} has no flit seq {seq}"
            ) from None
        if stall is not None:
            flit.stall_cycles = stall
        return flit


def _check(condition: bool, what: str) -> None:
    if not condition:
        raise CheckpointError(
            f"checkpoint does not match the platform built from its"
            f" spec: {what}"
        )


def _restore_histogram(hist, state: Dict[str, Any]) -> None:
    hist.counts[:] = state["counts"]
    hist.overflow = state["overflow"]
    hist.underflow = state["underflow"]
    hist.total = state["total"]
    hist._sum = state["sum"]
    hist._min = state["min"]
    hist._max = state["max"]


def _restore_switch(sw, state: Dict[str, Any],
                    registry: _PacketRegistry) -> None:
    _check(len(state["inputs"]) == len(sw.inputs),
           f"switch {sw.switch_id} input count")
    _check(len(state["outputs"]) == len(sw._outputs),
           f"switch {sw.switch_id} output count")
    for i, in_state in enumerate(state["inputs"]):
        buf = sw.inputs[i]
        buf._fifo.extend(
            registry.flit(pid, seq, stall)
            for pid, seq, stall in in_state["fifo"]
        )
        if buf._pid_counts is not None:
            counts = buf._pid_counts
            for flit in buf._fifo:
                pid = flit.packet.pid
                counts[pid] = counts.get(pid, 0) + 1
        (buf.total_pushes, buf.total_pops, buf.peak_occupancy,
         buf.occupancy_cycles, buf.full_cycles,
         buf._sampled_cycles) = in_state["stats"]
        route = in_state["route"]
        sw._input_route[i] = route
        sw._input_out[i] = (
            None if route is None else sw._outputs[route]
        )
        sw._in_active[i] = in_state["active"]
        sw._in_listed[i] = in_state["listed"]
        sw._in_parked[i] = in_state["parked"]
        sw._in_park_cycle[i] = in_state["park_cycle"]
        sw._in_park_credit[i] = in_state["park_credit"]
        head = in_state["park_head"]
        sw._in_park_head[i] = (
            None if head is None else registry.flit(head[0], head[1])
        )
    sw._scan[:] = [sw._in_tuples[i] for i in state["scan"]]
    sw._parked_count = state["parked_count"]
    sw._active = state["active"]
    sw._buffered = state["buffered"]
    sw.flits_forwarded = state["flits_forwarded"]
    sw._blocked_flit_cycles = state["blocked_flit_cycles"]
    sw._credit_stall_cycles = state["credit_stall_cycles"]
    for port, out_state in enumerate(state["outputs"]):
        out = sw._outputs[port]
        out.credits = out_state["credits"]
        out.lock = out_state["lock"]
        out.lock_pid = out_state["lock_pid"]
        out.flits_sent = out_state["flits_sent"]
        out.credit_waiters[:] = out_state["credit_waiters"]
        out.lock_waiters[:] = out_state["lock_waiters"]
        arb = sw.arbiters[port]
        arb_state = out_state["arbiter"]
        arb.grants = arb_state["grants"]
        arb.grant_counts[:] = arb_state["grant_counts"]
        if "pointer" in arb_state:
            arb._pointer = arb_state["pointer"]
        if "beats" in arb_state:
            arb._beats = [list(row) for row in arb_state["beats"]]


def _restore_model(model, state: Dict[str, Any],
                   rng_state: int) -> None:
    kind = state["kind"]
    expected = {
        "uniform": "UniformTraffic",
        "poisson": "PoissonTraffic",
        "burst": "BurstTraffic",
        "onoff": "OnOffTraffic",
        "trace": "TraceTraffic",
    }.get(kind)
    _check(type(model).__name__ == expected,
           f"traffic model family {kind!r}")
    if kind == "uniform" or kind == "poisson":
        model._next_emission = state["next_emission"]
    elif kind == "burst":
        model._state = state["state"]
        model._next_slot = state["next_slot"]
        model._burst_id = state["burst_id"]
        model._burst_dst = state["burst_dst"]
    elif kind == "onoff":
        model._next_emission = state["next_emission"]
        model._in_burst = state["in_burst"]
        model._burst_id = state["burst_id"]
        model._burst_dst = state["burst_dst"]
    else:  # trace
        model._cursor = state["cursor"]
    model.rng._lfsr.state = rng_state


def _restore_receptor(receptor, state: Dict[str, Any]) -> None:
    receptor.packets_received = state["packets_received"]
    receptor.flits_received = state["flits_received"]
    receptor.first_cycle = state["first_cycle"]
    receptor.last_cycle = state["last_cycle"]
    receptor.enabled = state["enabled"]
    if "latency" in state:
        lat_state = state["latency"]
        lat = receptor.latency
        lat.count = lat_state["count"]
        lat.total_latency = lat_state["total_latency"]
        lat.min_latency = lat_state["min_latency"]
        lat.max_latency = lat_state["max_latency"]
        _restore_histogram(lat.histogram, lat_state["histogram"])
        lat.total_queueing = lat_state["total_queueing"]
        lat.total_network = lat_state["total_network"]
        lat.decomposed_count = lat_state["decomposed_count"]
        lat._burst_acc.clear()
        for burst, queueing, count in lat_state["burst_acc"]:
            lat._burst_acc[int(burst)][:] = [queueing, count]
        con_state = state["congestion"]
        con = receptor.congestion
        con.packets = con_state["packets"]
        con.flits = con_state["flits"]
        con.total_stall_cycles = con_state["total_stall_cycles"]
        con.max_packet_stall = con_state["max_packet_stall"]
        con.congested_packets = con_state["congested_packets"]
    if "length_histogram" in state:
        _restore_histogram(
            receptor.length_histogram, state["length_histogram"]
        )
        _restore_histogram(
            receptor.gap_histogram, state["gap_histogram"]
        )
        _restore_histogram(
            receptor.source_histogram, state["source_histogram"]
        )
        receptor._previous_arrival = state["previous_arrival"]


def _restore_injector(injector, fstate: Dict[str, Any],
                      platform: EmulationPlatform) -> None:
    network = platform.network
    schedule = injector.schedule
    injector._next_idx = fstate["next_idx"]
    injector._dead_pairs = {
        (a, b) for a, b in fstate["dead_pairs"]
    }
    injector._boundary_cycle = fstate["boundary_cycle"]
    injector._boundary_packets = fstate["boundary_packets"]
    injector._boundary_label = fstate["boundary_label"]

    rstate = fstate["report"]
    report = injector.report
    report.dropped_flits = rstate["dropped_flits"]
    report.dropped_packets = rstate["dropped_packets"]
    report.per_link_drops.clear()
    report.per_link_drops.update(rstate["per_link_drops"])
    report.events[:] = [
        FaultEventRecord(
            cycle=rec["cycle"],
            kind=rec["kind"],
            detail=rec["detail"],
            dropped_flits=rec["dropped_flits"],
            dropped_packets=rec["dropped_packets"],
            repaired=rec["repaired"],
            repair_wall_seconds=rec["repair_wall_seconds"],
            recovery_cycles=rec["recovery_cycles"],
        )
        for rec in rstate["events"]
    ]
    report.windows[:] = [
        FaultWindow(label=label, start=start, end=end,
                    packets_received=packets)
        for label, start, end, packets in rstate["windows"]
    ]
    report.degraded = rstate["degraded"]
    report.degraded_reason = rstate["degraded_reason"]

    # Detach the credit hooks of downed links exactly as link_down
    # did, through the saved-credit store, so link_up can re-baseline.
    injector._saved_credit = {}
    for sw_id, port in fstate["saved_credit_keys"]:
        sw = network.switches[sw_id]
        hook = sw._input_credit[port]
        _check(hook is not None,
               f"saved credit hook ({sw_id}, {port}) missing")
        injector._saved_credit[(sw_id, port)] = hook
        sw._input_credit[port] = None

    # Flaky windows and in-progress recovery probes reference report
    # records by index; the event's link list and drop threshold are
    # derived exactly as _apply_flaky derives them.
    injector._flaky = []
    for event_idx, record_idx in fstate["flaky"]:
        event = schedule.events[event_idx]
        links = list(network.switch_links[(event.a, event.b)])
        threshold = int(event.drop_p * 2**32)
        injector._flaky.append(
            (event, links, threshold, report.events[record_idx])
        )
    injector._awaiting = [
        (report.events[record_idx], packets_then)
        for record_idx, packets_then in fstate["awaiting"]
    ]

    if fstate["repaired"]:
        # Rebuild the repaired tables with the *current* avoid set
        # through the injector's own repair path (build, deadlock
        # re-vet, up*/down* fallback, dense compile) and hot-swap.
        # The per-input cached routes were restored verbatim (they
        # already reflect every post-repair decision), so no cache
        # clearing and no wakes.
        injector.install_routes(*injector.repaired_routes())


def restore(
    checkpoint: Checkpoint,
) -> Tuple[EmulationPlatform, EmulationEngine]:
    """Rebuild ``(platform, engine)`` resuming at ``checkpoint.cycle``.

    The continuation is bit-identical to the uninterrupted run on both
    kernels: drive ``engine.run(...)`` or step
    ``platform.step_reference()`` manually, exactly as you would have
    driven the original.
    """
    spec = checkpoint.spec
    state = checkpoint.state
    platform = build_platform(spec.to_platform_config())
    network = platform.network

    _check(len(state["switches"]) == len(network.switches),
           "switch count")
    _check(len(state["nis"]) == len(network.nis), "NI count")
    _check(len(state["rx"]) == len(network.rx), "rx count")
    _check(len(state["links"]) == len(network.links), "link count")
    _check(len(state["generators"]) == len(platform.generators),
           "generator count")
    _check(len(state["receptors"]) == len(platform.receptors),
           "receptor count")
    net_state = state["network"]
    _check(net_state["wheel_size"] == network._wheel_size,
           "delivery wheel size")

    registry = _PacketRegistry(state["packets"])
    cycle = state["cycle"]
    network.cycle = cycle

    for link, link_state in zip(network.links, state["links"]):
        link.flits_carried = link_state["flits_carried"]
        link.flits_dropped = link_state["flits_dropped"]
        link.stats_since = link_state["stats_since"]
        link.down = link_state["down"]
        link._last_send_cycle = link_state["last_send_cycle"]
        link.wire_count = link_state["wire_count"]

    for sw, sw_state in zip(network.switches, state["switches"]):
        _restore_switch(sw, sw_state, registry)

    for ni, ni_state in zip(network.nis, state["nis"]):
        ni._flits.extend(
            registry.flit(pid, seq, stall)
            for pid, seq, stall in ni_state["flits"]
        )
        ni._credits = ni_state["credits"]
        ni._active = ni_state["active"]
        ni._parked = ni_state["parked"]
        ni._park_cycle = ni_state["park_cycle"]
        ni.offered_packets = ni_state["offered_packets"]
        ni.injected_flits = ni_state["injected_flits"]
        ni.injected_packets = ni_state["injected_packets"]
        ni._stall_cycles = ni_state["stall_cycles"]
        ni.peak_queue = ni_state["peak_queue"]

    for rx, rx_state in zip(network.rx, state["rx"]):
        for pid, flits in rx_state["partial"]:
            rx._partial[pid] = [
                registry.flit(pid, seq, stall)
                for seq, stall in flits
            ]
        rx.received_flits = rx_state["received_flits"]
        rx.received_packets = rx_state["received_packets"]
        rx.misrouted_flits = rx_state["misrouted_flits"]
        rx.aborted_packets = rx_state["aborted_packets"]

    # Delivery wheels: resolve credit entries against the freshly
    # wired hooks *before* fault restoration detaches any of them.
    size = network._wheel_size
    for offset, entries in enumerate(net_state["flit_wheel"]):
        slot = network._flit_wheel[(cycle + offset) % size]
        slot.extend(
            (network.links[link_idx], registry.flit(pid, seq, stall))
            for link_idx, pid, seq, stall in entries
        )
    for offset, entries in enumerate(net_state["credit_wheel"]):
        slot = network._credit_wheel[(cycle + offset) % size]
        for sw_id, port in entries:
            hook = network.switches[sw_id]._input_credit[port]
            _check(hook is not None,
                   f"credit entry ({sw_id}, {port}) not wired")
            slot.append(hook[1])

    network._in_flight_flits = net_state["in_flight_flits"]
    active_ids = set(net_state["active_switches"])
    network._active_switches[:] = [
        network.switches[i] for i in net_state["active_switches"]
    ]
    for sw in network.switches:
        _check(sw._active == (sw.switch_id in active_ids),
               f"switch {sw.switch_id} active-flag consistency")
    active_nodes = set(net_state["active_nis"])
    network._active_nis[:] = [
        network.nis[node] for node in net_state["active_nis"]
    ]
    for ni in network.nis:
        _check(ni._active == (ni.node in active_nodes),
               f"NI {ni.node} active-flag consistency")

    for gen, gen_state in zip(platform.generators,
                              state["generators"]):
        gen.enabled = gen_state["enabled"]
        gen._silent_until = gen_state["silent_until"]
        gen._bp_since = gen_state["bp_since"]
        gen.packets_sent = gen_state["packets_sent"]
        gen.flits_sent = gen_state["flits_sent"]
        gen._backpressure_cycles = gen_state["backpressure_cycles"]
        _restore_model(
            gen.model, gen_state["model"], gen_state["rng_state"]
        )
        if gen._bp_since is not None:
            # The original run had a one-shot drain watch armed; the
            # NI still holds >= queue_limit flits, so re-arming
            # cannot fire early.
            gen.ni.watch_drain(gen.queue_limit, gen._on_ni_drain)

    pstate = state["platform"]
    platform._next_gen_poll = pstate["next_gen_poll"]
    platform._gen_next[:] = pstate["gen_next"]
    platform._packets_sent = pstate["packets_sent"]
    platform._packets_received = pstate["packets_received"]

    for receptor, r_state in zip(platform.receptors,
                                 state["receptors"]):
        _restore_receptor(receptor, r_state)

    # --- faults.
    fstate = state["faults"]
    schedule = None
    injector = None
    if fstate is not None:
        schedule = FaultSchedule.from_dict(fstate["schedule"])
        if fstate["injector"] is not None:
            from repro.faults.injector import FaultInjector

            injector = FaultInjector(schedule, platform)
            _restore_injector(injector, fstate["injector"], platform)
    elif spec.faults is not None:
        schedule = spec.faults

    # --- telemetry (base snapshot last: deltas continue from the
    # fully restored counters).
    telemetry = None
    tstate = state["telemetry"]
    if tstate is not None:
        telemetry = WindowedMetrics(
            platform, tstate["window_cycles"]
        )
        telemetry._started = tstate["started"]
        telemetry._start = tstate["start"]
        telemetry._boundary = tstate["boundary"]
        telemetry.records[:] = [
            WindowRecord(
                index=rec["index"],
                start=rec["start"],
                end=rec["end"],
                injected_flits=rec["injected_flits"],
                injected_packets=rec["injected_packets"],
                ejected_flits=rec["ejected_flits"],
                ejected_packets=rec["ejected_packets"],
                forwarded_flits=rec["forwarded_flits"],
                blocked_flit_cycles=rec["blocked_flit_cycles"],
                credit_stall_cycles=rec["credit_stall_cycles"],
                ni_stall_cycles=rec["ni_stall_cycles"],
                backpressure_cycles=rec["backpressure_cycles"],
                fault_dropped_flits=rec["fault_dropped_flits"],
                switch_forwarded=tuple(rec["switch_forwarded"]),
                switch_blocked=tuple(rec["switch_blocked"]),
                switch_credit_stalls=tuple(
                    rec["switch_credit_stalls"]
                ),
                link_flits=dict(rec["link_flits"]),
                switch_buffered=tuple(rec["switch_buffered"]),
                parked_inputs=rec["parked_inputs"],
                in_flight_flits=rec["in_flight_flits"],
            )
            for rec in tstate["records"]
        ]
        base = tstate["base"]
        if base is not None:
            flat, sw_stats, link_stats = base
            telemetry._base = tuple(flat) + (
                tuple(tuple(sw) for sw in sw_stats),
                tuple(tuple(link) for link in link_stats),
            )

    engine = EmulationEngine(
        platform, faults=schedule, telemetry=telemetry
    )
    engine._injector = injector

    # Future packets continue the original pid sequence (pids feed
    # the flaky-drop RNG and the multipath hash, so this is part of
    # bit-identity, not cosmetics).
    flit_mod._packet_ids = itertools.count(state["next_pid"])

    return platform, engine
