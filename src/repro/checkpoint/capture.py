"""Snapshot: enumerate every piece of mutable emulation state.

``snapshot(platform, spec, engine=None)`` walks the platform at a
cycle boundary — after a ``Network.step`` / ``step_reference`` has
completed, before the next one begins — and records everything the
next cycle's behaviour depends on, as a JSON-plain dict:

* the clock and the global packet-id allocator position;
* every packet still alive anywhere (buffers, NI queues, wire wheels,
  park heads, reassembly partials), by pid, with per-flit stall
  deltas;
* per-switch input FIFOs, buffer statistics, cached per-input route
  decisions, the per-input park records *raw* (park cycle, frozen
  head, credit-vs-lock wait) — parked settlement state is never
  settled by observation here, so a snapshot is invisible to the
  stall accounting;
* per-output credits, wormhole locks (``lock`` / ``lock_pid``),
  arbiter rotation state, and the persistent credit/lock wake lists
  verbatim (stale entries included — the wake paths tolerate them and
  the reference kernel self-heals, so fidelity beats tidiness);
* the flit and credit delivery wheels, slot by slot relative to the
  current cycle (flit entries as ``(link index, pid, seq)``, credit
  entries as the ``(switch, input port)`` coordinates of the
  downstream input whose structural entry tuple they are);
* NI queues and park state, reassembly partials in arrival order,
  per-link counters and the double-send guard;
* every traffic model's emission caches and its LFSR register, the
  generator poll caches (``_silent_until``, backpressure park), and
  the platform's generator poll schedule;
* receptor analyzers (histograms, latency decomposition incl. the
  per-burst accumulator, congestion counters);
* the fault injector's cursor, dead-pair set, saved credit hooks,
  flaky windows, in-progress recovery probes and the full report —
  plus the fault schedule itself, so a resume does not depend on the
  caller re-supplying it;
* telemetry window boundaries and the closed window records.

The snapshot *must* happen at a cycle boundary: mid-phase transients
(arbitration requests) are asserted empty rather than serialized.
"""

from typing import Any, Dict, List, Optional

from repro.core.platform import EmulationPlatform
from repro.experiments.spec import ScenarioSpec
from repro.traffic.burst import BurstTraffic
from repro.traffic.onoff import OnOffTraffic
from repro.traffic.poisson import PoissonTraffic
from repro.traffic.trace import TraceTraffic
from repro.traffic.uniform import UniformTraffic

from .errors import CheckpointError
from .record import Checkpoint

__all__ = ["snapshot"]


def _flit_ref(flit) -> List[int]:
    return [flit.packet.pid, flit.seq, flit.stall_cycles]


def _collect_packet(packets: Dict[int, Any], flit) -> None:
    packets.setdefault(flit.packet.pid, flit.packet)


def _histogram_state(hist) -> Dict[str, Any]:
    return {
        "counts": list(hist.counts),
        "overflow": hist.overflow,
        "underflow": hist.underflow,
        "total": hist.total,
        "sum": hist._sum,
        "min": hist._min,
        "max": hist._max,
    }


def _model_state(model) -> Dict[str, Any]:
    """The per-family emission caches of one traffic model."""
    if isinstance(model, UniformTraffic):
        return {"kind": "uniform", "next_emission": model._next_emission}
    if isinstance(model, PoissonTraffic):
        return {"kind": "poisson", "next_emission": model._next_emission}
    if isinstance(model, BurstTraffic):
        return {
            "kind": "burst",
            "state": model._state,
            "next_slot": model._next_slot,
            "burst_id": model._burst_id,
            "burst_dst": model._burst_dst,
        }
    if isinstance(model, OnOffTraffic):
        return {
            "kind": "onoff",
            "next_emission": model._next_emission,
            "in_burst": model._in_burst,
            "burst_id": model._burst_id,
            "burst_dst": model._burst_dst,
        }
    if isinstance(model, TraceTraffic):
        return {"kind": "trace", "cursor": model._cursor}
    raise CheckpointError(
        f"cannot checkpoint traffic model"
        f" {type(model).__name__}: no state enumeration registered"
        f" for this family"
    )


def _switch_state(sw, packets: Dict[int, Any]) -> Dict[str, Any]:
    if sw._req_ports:
        raise CheckpointError(
            f"switch {sw.switch_id} has pending arbitration requests;"
            f" snapshot only at a cycle boundary"
        )
    inputs = []
    for i, buf in enumerate(sw.inputs):
        for flit in buf._fifo:
            _collect_packet(packets, flit)
        head = sw._in_park_head[i]
        if head is not None:
            _collect_packet(packets, head)
        inputs.append({
            "fifo": [_flit_ref(f) for f in buf._fifo],
            "stats": [
                buf.total_pushes,
                buf.total_pops,
                buf.peak_occupancy,
                buf.occupancy_cycles,
                buf.full_cycles,
                buf._sampled_cycles,
            ],
            "route": sw._input_route[i],
            "active": sw._in_active[i],
            "listed": sw._in_listed[i],
            "parked": sw._in_parked[i],
            "park_cycle": sw._in_park_cycle[i],
            "park_credit": sw._in_park_credit[i],
            "park_head": (
                None if head is None
                else [head.packet.pid, head.seq]
            ),
        })
    outputs = []
    for port, out in enumerate(sw._outputs):
        if out.requests:
            raise CheckpointError(
                f"switch {sw.switch_id} output {port} has pending"
                f" requests; snapshot only at a cycle boundary"
            )
        arb = sw.arbiters[port]
        arb_state: Dict[str, Any] = {
            "grants": arb.grants,
            "grant_counts": list(arb.grant_counts),
        }
        pointer = getattr(arb, "_pointer", None)
        if pointer is not None:
            arb_state["pointer"] = pointer
        beats = getattr(arb, "_beats", None)
        if beats is not None:
            arb_state["beats"] = [list(row) for row in beats]
        outputs.append({
            "credits": out.credits,
            "lock": out.lock,
            "lock_pid": out.lock_pid,
            "flits_sent": out.flits_sent,
            "credit_waiters": list(out.credit_waiters),
            "lock_waiters": list(out.lock_waiters),
            "arbiter": arb_state,
        })
    return {
        "active": sw._active,
        "buffered": sw._buffered,
        "flits_forwarded": sw.flits_forwarded,
        "blocked_flit_cycles": sw._blocked_flit_cycles,
        "credit_stall_cycles": sw._credit_stall_cycles,
        "parked_count": sw._parked_count,
        "scan": [entry[0] for entry in sw._scan],
        "inputs": inputs,
        "outputs": outputs,
    }


def _receptor_state(receptor) -> Dict[str, Any]:
    state: Dict[str, Any] = {
        "packets_received": receptor.packets_received,
        "flits_received": receptor.flits_received,
        "first_cycle": receptor.first_cycle,
        "last_cycle": receptor.last_cycle,
        "enabled": receptor.enabled,
    }
    latency = getattr(receptor, "latency", None)
    if latency is not None:  # trace-driven
        state["latency"] = {
            "count": latency.count,
            "total_latency": latency.total_latency,
            "min_latency": latency.min_latency,
            "max_latency": latency.max_latency,
            "histogram": _histogram_state(latency.histogram),
            "total_queueing": latency.total_queueing,
            "total_network": latency.total_network,
            "decomposed_count": latency.decomposed_count,
            "burst_acc": [
                [burst, acc[0], acc[1]]
                for burst, acc in latency._burst_acc.items()
            ],
        }
        congestion = receptor.congestion
        state["congestion"] = {
            "packets": congestion.packets,
            "flits": congestion.flits,
            "total_stall_cycles": congestion.total_stall_cycles,
            "max_packet_stall": congestion.max_packet_stall,
            "congested_packets": congestion.congested_packets,
        }
    if getattr(receptor, "length_histogram", None) is not None:
        state["length_histogram"] = _histogram_state(
            receptor.length_histogram
        )
        state["gap_histogram"] = _histogram_state(
            receptor.gap_histogram
        )
        state["source_histogram"] = _histogram_state(
            receptor.source_histogram
        )
        state["previous_arrival"] = receptor._previous_arrival
    return state


def _injector_state(injector, network) -> Dict[str, Any]:
    schedule = injector.schedule
    event_index = {
        id(event): idx for idx, event in enumerate(schedule.events)
    }
    record_index = {
        id(rec): idx for idx, rec in enumerate(injector.report.events)
    }
    report = injector.report
    return {
        "next_idx": injector._next_idx,
        "dead_pairs": sorted(
            [a, b] for a, b in injector._dead_pairs
        ),
        "saved_credit_keys": sorted(
            [sw_id, port]
            for sw_id, port in injector._saved_credit
        ),
        "boundary_cycle": injector._boundary_cycle,
        "boundary_packets": injector._boundary_packets,
        "boundary_label": injector._boundary_label,
        "flaky": [
            [event_index[id(event)], record_index[id(rec)]]
            for event, _links, _threshold, rec in injector._flaky
        ],
        "awaiting": [
            [record_index[id(rec)], packets_then]
            for rec, packets_then in injector._awaiting
        ],
        "repaired": any(rec.repaired for rec in report.events),
        "report": {
            "dropped_flits": report.dropped_flits,
            "dropped_packets": report.dropped_packets,
            "per_link_drops": dict(report.per_link_drops),
            "events": [
                {
                    "cycle": rec.cycle,
                    "kind": rec.kind,
                    "detail": rec.detail,
                    "dropped_flits": rec.dropped_flits,
                    "dropped_packets": rec.dropped_packets,
                    "repaired": rec.repaired,
                    "repair_wall_seconds": rec.repair_wall_seconds,
                    "recovery_cycles": rec.recovery_cycles,
                }
                for rec in report.events
            ],
            "windows": [
                [w.label, w.start, w.end, w.packets_received]
                for w in report.windows
            ],
            "degraded": report.degraded,
            "degraded_reason": report.degraded_reason,
        },
    }


def snapshot(
    platform: EmulationPlatform,
    spec: ScenarioSpec,
    engine=None,
) -> Checkpoint:
    """Capture the complete emulation state at the current cycle.

    ``spec`` must be the scenario the platform was built from (its
    ``to_platform_config()`` is what ``restore`` rebuilds); it is
    embedded in the record and hash-checked on resume.  Pass the
    :class:`~repro.core.engine.EmulationEngine` driving the run
    whenever faults or telemetry are in play — their live state (the
    injector and the windowed collector) lives on the engine, not the
    platform.

    Raises :class:`CheckpointError` when the platform is not at a
    clean cycle boundary or holds state the checkpoint layer does not
    model (packet-record mode, an unknown traffic-model family, a
    mid-run faulted platform snapshotted without its engine).
    """
    network = platform.network
    cycle = network.cycle
    packets: Dict[int, Any] = {}

    injector = getattr(engine, "_injector", None) if engine else None
    schedule = engine.faults if engine is not None else spec.faults
    if engine is None and spec.faults is not None and cycle > 0:
        raise CheckpointError(
            "platform has advanced under a fault schedule; pass the"
            " engine so the injector state can be captured"
        )
    telemetry = getattr(engine, "telemetry", None) if engine else None
    if network._tracer is not None:
        raise CheckpointError(
            "a FlitTracer is attached; detach it before snapshotting"
            " (re-attach a fresh tracer to the restored platform —"
            " per-cycle canonical ordering makes the concatenated"
            " streams bit-identical)"
        )
    for gen in platform.generators:
        if gen._records is not None:
            raise CheckpointError(
                "generator packet-record mode (record=True) is not"
                " checkpointable"
            )

    # --- allocator position: the next pid a fresh packet would get.
    from repro.noc import flit as flit_mod
    import itertools

    next_pid = next(flit_mod._packet_ids)
    flit_mod._packet_ids = itertools.count(next_pid)

    # --- switches (also collects packets from fifos/park heads).
    switches = [_switch_state(sw, packets) for sw in network.switches]

    # --- NIs.
    nis = []
    for ni in network.nis:
        for flit in ni._flits:
            _collect_packet(packets, flit)
        nis.append({
            "flits": [_flit_ref(f) for f in ni._flits],
            "credits": ni._credits,
            "active": ni._active,
            "parked": ni._parked,
            "park_cycle": ni._park_cycle,
            "offered_packets": ni.offered_packets,
            "injected_flits": ni.injected_flits,
            "injected_packets": ni.injected_packets,
            "stall_cycles": ni._stall_cycles,
            "peak_queue": ni.peak_queue,
        })

    # --- reassembly buffers (partials in arrival order).
    rx_state = []
    for rx in network.rx:
        partial = []
        for pid, flits in rx._partial.items():
            for flit in flits:
                _collect_packet(packets, flit)
            partial.append(
                [pid, [[f.seq, f.stall_cycles] for f in flits]]
            )
        rx_state.append({
            "partial": partial,
            "received_flits": rx.received_flits,
            "received_packets": rx.received_packets,
            "misrouted_flits": rx.misrouted_flits,
            "aborted_packets": rx.aborted_packets,
        })

    # --- links and the delivery wheels.
    link_index = {id(link): i for i, link in enumerate(network.links)}
    links = []
    for link in network.links:
        links.append({
            "flits_carried": link.flits_carried,
            "flits_dropped": link.flits_dropped,
            "stats_since": link.stats_since,
            "down": link.down,
            "last_send_cycle": link._last_send_cycle,
            "wire_count": link.wire_count,
        })

    size = network._wheel_size
    flit_wheel = []
    for offset in range(size):
        slot = network._flit_wheel[(cycle + offset) % size]
        entries = []
        for link, flit in slot:
            _collect_packet(packets, flit)
            entries.append(
                [link_index[id(link)], flit.packet.pid, flit.seq,
                 flit.stall_cycles]
            )
        flit_wheel.append(entries)

    # Credit entries are structural tuples owned by the downstream
    # input's ``_input_credit`` hook — encode them as that input's
    # coordinates.  Entries a fault injector detached (downed links)
    # are mapped through its saved-credit store.
    entry_coord = {}
    for sw in network.switches:
        for port, hook in enumerate(sw._input_credit):
            if hook is not None:
                entry_coord[id(hook[1])] = (sw.switch_id, port)
    if injector is not None:
        for (sw_id, port), hook in injector._saved_credit.items():
            entry_coord[id(hook[1])] = (sw_id, port)
    credit_wheel = []
    for offset in range(size):
        slot = network._credit_wheel[(cycle + offset) % size]
        entries = []
        for entry in slot:
            coord = entry_coord.get(id(entry))
            if coord is None:
                raise CheckpointError(
                    "credit wheel holds an entry no switch input"
                    " owns; cannot serialize"
                )
            entries.append([coord[0], coord[1]])
        credit_wheel.append(entries)

    # --- generators + traffic models.
    generators = []
    for gen in platform.generators:
        generators.append({
            "enabled": gen.enabled,
            "silent_until": gen._silent_until,
            "bp_since": gen._bp_since,
            "packets_sent": gen.packets_sent,
            "flits_sent": gen.flits_sent,
            "backpressure_cycles": gen._backpressure_cycles,
            "rng_state": gen.model.rng._lfsr.state,
            "model": _model_state(gen.model),
        })

    state: Dict[str, Any] = {
        "cycle": cycle,
        "next_pid": next_pid,
        "packets": sorted(
            [
                pkt.pid,
                pkt.src,
                pkt.dst,
                pkt.length,
                pkt.injection_cycle,
                pkt.wire_entry_cycle,
                pkt.burst_id,
            ]
            for pkt in packets.values()
        ),
        "network": {
            "in_flight_flits": network._in_flight_flits,
            "wheel_size": size,
            "active_switches": [
                sw.switch_id for sw in network._active_switches
            ],
            "active_nis": [ni.node for ni in network._active_nis],
            "flit_wheel": flit_wheel,
            "credit_wheel": credit_wheel,
        },
        "links": links,
        "switches": switches,
        "nis": nis,
        "rx": rx_state,
        "generators": generators,
        "platform": {
            "next_gen_poll": platform._next_gen_poll,
            "gen_next": list(platform._gen_next),
            "packets_sent": platform._packets_sent,
            "packets_received": platform._packets_received,
        },
        "receptors": [
            _receptor_state(r) for r in platform.receptors
        ],
        "faults": None,
        "telemetry": None,
    }

    if schedule is not None and schedule.events:
        state["faults"] = {
            "schedule": schedule.to_dict(),
            "injector": (
                None if injector is None
                else _injector_state(injector, network)
            ),
        }
    if telemetry is not None:
        # The base snapshot is the stored boundary reading (pure
        # data, already settled at its own boundary) — serialized,
        # not recomputed, because the checkpoint cycle can fall
        # mid-window with activity since the last boundary.
        base = telemetry._base
        state["telemetry"] = {
            "window_cycles": telemetry.window_cycles,
            "started": telemetry._started,
            "start": telemetry._start,
            "boundary": telemetry._boundary,
            "base": (
                None if not base else [
                    list(base[:6]),
                    [list(sw) for sw in base[6]],
                    [list(link) for link in base[7]],
                ]
            ),
            "records": [w.to_dict() for w in telemetry.records],
        }

    return Checkpoint(spec=spec, state=state)
