"""Restore: rebuild a platform that resumes bit-identically.

``restore(checkpoint)`` builds a *fresh* platform from the embedded
spec (same constructor path as a cold run, so all structure, hooks and
closures are wired exactly as ``build_platform`` wires them), then
overlays the captured state.  The generic walker
(:mod:`repro.checkpoint.walker`) writes every plain-value field back
into the object the fresh platform built; this module restores by
hand what :mod:`repro.checkpoint.capture` captured by hand, in
dependency order:

1. structural cross-checks (component counts, wheel geometry) — any
   drift between the spec's platform and the snapshot is a clean
   :class:`CheckpointError`, never a partial restore.  The counters
   the kernel derives (a switch's ``buffered``, a link's
   ``wire_count``) must agree with the restored FIFOs and wheel, or
   restore raises :class:`CheckpointCorruptError`;
2. the packet registry: each pid's :class:`Packet` is materialized
   once and its eager flit list shared by every site that references
   ``(pid, seq)`` — so a parked head is *the same object* as the
   FIFO head it froze, exactly as in the original run;
3. components (the platform's pid allocator included, so future pids
   continue the original sequence), delivery wheels and active lists,
   then a new :class:`FaultInjector` and :class:`WindowedMetrics` on
   the new platform (the telemetry base is state: a cut can fall
   mid-window).

A hash-valid record whose state is malformed (a missing key, a wrong
type or length) raises :class:`CheckpointCorruptError`.  The returned
engine carries the injector (if any) so :meth:`EmulationEngine.run`
resumes the fault schedule mid-flight instead of restarting it.
"""

import operator
from typing import Any, Dict, List, Tuple

from repro.core.engine import EmulationEngine
from repro.core.platform import EmulationPlatform, build_platform
from repro.faults.report import FaultEventRecord, FaultWindow
from repro.faults.schedule import FaultSchedule
from repro.noc.flit import Packet
from repro.telemetry import WindowedMetrics
from repro.telemetry.windows import WindowRecord

from .capture import MODEL_KINDS
from .errors import CheckpointCorruptError, CheckpointError
from .record import Checkpoint
from .walker import restore_into

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

    def flits(self, refs: List[list]) -> list:
        """The flits of ``[pid, seq, stall]`` references, in order."""
        return [self.flit(pid, seq, stall) for pid, seq, stall in refs]


def _check(condition: bool, what: str) -> None:
    if not condition:
        raise CheckpointError(
            f"checkpoint does not match the platform built from its"
            f" spec: {what}"
        )


def _restore_switch(sw, state: Dict[str, Any],
                    registry: _PacketRegistry, path: str) -> None:
    _check(len(state["inputs"]) == len(sw.inputs),
           f"switch {sw.switch_id} input count")
    restore_into(sw, state, path)
    for i, in_state in enumerate(state["inputs"]):
        buf = sw.inputs[i]
        buf._fifo.extend(registry.flits(in_state["fifo"]))
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
    _derived(sw.buffered_flits, state["buffered"], f"{path}.buffered")
    for out, out_state in zip(sw._outputs, state["outputs"]):
        out.sent_base = out_state["flits_sent"] - (
            0 if out.link is None else out.link.flits_carried
        )


def _derived(actual: int, recorded, where: str) -> None:
    """A derived counter must match the state it is derived from."""
    if recorded != actual:
        raise CheckpointCorruptError(
            f"checkpoint state is inconsistent: {where} is"
            f" {recorded!r}, but the restored state holds {actual}"
        )


def _restore_injector(injector, fstate: Dict[str, Any],
                      platform: EmulationPlatform) -> None:
    restore_into(injector, fstate, "faults.injector")
    network = platform.network
    report = injector.report
    rstate = fstate["report"]
    report.events[:] = [
        FaultEventRecord.from_dict(rec) for rec in rstate["events"]
    ]
    report.windows[:] = [FaultWindow(*w) for w in rstate["windows"]]
    injector._dead_pairs = {(a, b) for a, b in fstate["dead_pairs"]}

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
        event = injector.schedule.events[event_idx]
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
        injector.install_routes(injector.repaired_routes())


def _overlay(platform: EmulationPlatform, spec,
             state: Dict[str, Any]) -> EmulationEngine:
    """Write ``state`` into the fresh ``platform``; return the engine."""
    network = platform.network
    for name, components in (
        ("switches", network.switches),
        ("nis", network.nis),
        ("rx", network.rx),
        ("links", network.links),
        ("generators", platform.generators),
        ("receptors", platform.receptors),
    ):
        _check(len(state[name]) == len(components), f"{name} count")
    net_state = state["network"]
    _check(net_state["wheel_size"] == network._wheel_size,
           "delivery wheel size")

    registry = _PacketRegistry(state["packets"])
    cycle = network.cycle = state["cycle"]

    for i, link in enumerate(network.links):
        restore_into(link, state["links"][i], f"links[{i}]")
    for i, sw in enumerate(network.switches):
        _restore_switch(sw, state["switches"][i], registry,
                        f"switches[{i}]")
    for i, ni in enumerate(network.nis):
        ni_state = state["nis"][i]
        restore_into(ni, ni_state, f"nis[{i}]")
        ni._flits.extend(registry.flits(ni_state["flits"]))
    for i, rx in enumerate(network.rx):
        rx_state = state["rx"][i]
        restore_into(rx, rx_state, f"rx[{i}]")
        for pid, flits in rx_state["partial"]:
            rx._partial[pid] = [
                registry.flit(pid, seq, stall) for seq, stall in flits
            ]

    # Delivery wheels: resolve credit entries against the freshly
    # wired hooks *before* fault restoration detaches any of them.
    size = network._wheel_size
    wire_count = [0] * len(network.links)
    for offset, entries in enumerate(net_state["flit_wheel"]):
        slot = network._flit_wheel[(cycle + offset) % size]
        for link_idx, pid, seq, stall in entries:
            slot.append(
                (network.links[link_idx], registry.flit(pid, seq, stall))
            )
            wire_count[link_idx] += 1
    for i, count in enumerate(wire_count):
        _derived(count, state["links"][i]["wire_count"],
                 f"links[{i}].wire_count")
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

    for i, gen in enumerate(platform.generators):
        gen_state = state["generators"][i]
        kind = gen_state["model"]["kind"]
        _check(MODEL_KINDS.get(type(gen.model)) == kind,
               f"traffic model family {kind!r}")
        restore_into(gen, gen_state, f"generators[{i}]")
        gen.model.rng._lfsr.state = gen_state["rng_state"]
        if gen._bp_since is not None:
            # The original run had a one-shot drain watch armed; the
            # NI still holds >= queue_limit flits, so re-arming
            # cannot fire early.
            gen.ni.watch_drain(gen.queue_limit, gen._on_ni_drain)

    restore_into(platform, state["platform"], "platform")
    # Pids feed the flaky-drop RNG and the multipath hash: continuing
    # the sequence is part of bit-identity (a non-int is malformed).
    platform.next_pid = operator.index(state["next_pid"])

    for i, receptor in enumerate(platform.receptors):
        r_state = state["receptors"][i]
        restore_into(receptor, r_state, f"receptors[{i}]")
        latency = getattr(receptor, "latency", None)
        if latency is not None:  # trace-driven
            latency._burst_acc.clear()
            for burst, count, total in r_state["latency"]["burst_acc"]:
                latency._burst_acc[int(burst)][:] = [count, total]

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

    # Telemetry last: the base reading continues from the fully
    # restored counters.
    telemetry = None
    tstate = state["telemetry"]
    if tstate is not None:
        telemetry = WindowedMetrics(platform, tstate["window_cycles"])
        restore_into(telemetry, tstate, "telemetry")
        telemetry.records[:] = [
            WindowRecord.from_dict(rec) for rec in tstate["records"]
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
    return engine


def restore(
    checkpoint: Checkpoint,
) -> Tuple[EmulationPlatform, EmulationEngine]:
    """Rebuild ``(platform, engine)`` resuming at ``checkpoint.cycle``.

    The continuation is bit-identical to the uninterrupted run on both
    kernels: drive ``engine.run(...)`` or step
    ``platform.step_reference()`` manually, exactly as you would have
    driven the original.
    """
    platform = build_platform(checkpoint.spec.to_platform_config())
    try:
        engine = _overlay(platform, checkpoint.spec, checkpoint.state)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CheckpointCorruptError(
            f"checkpoint state is malformed:"
            f" {type(exc).__name__}: {exc}"
        ) from exc
    return platform, engine
