"""Snapshot: record every piece of mutable emulation state.

``snapshot(platform, spec, engine=None)`` runs at a cycle boundary —
after a ``Network.step`` / ``step_reference`` has completed, before
the next one begins — and records everything the next cycle's
behaviour depends on, as a JSON-plain dict.

Plain-value state is captured by the generic walker
(:mod:`repro.checkpoint.walker`): every field of a component that its
class's ``__rebuilt__`` declaration does not skip.  This module adds
by hand only what a field walk cannot express:

* identities — every packet still alive (buffers, NI queues, wire
  wheel, park heads, reassembly partials) once by pid, flits as
  ``[pid, seq, stall]`` references; credit-wheel entries and the
  injector's saved credit hooks as the ``(switch, input port)``
  coordinates of the downstream input owning them;
* the switch's per-input columns, transposed into per-input records
  (park records *raw* — a snapshot never settles parked stalls, so it
  is invisible to the stall accounting) and its scan order;
* counters the kernel derives instead of counting (a switch's
  ``buffered`` flits, each output's ``flits_sent``, each link's
  ``wire_count``), written under the keys they had as fields;
* positional lists (buffer statistics, fault windows), the latency
  analyzer's per-burst accumulator, the traffic-model family tag and
  LFSR register, the injector's dead pairs and flaky/recovery indices;
* the fault schedule itself, the telemetry records and the stored
  differencing base.

Wake lists are captured verbatim, stale entries included: the wake
paths tolerate them and the reference kernel self-heals, so fidelity
beats tidiness.  Mid-phase transients (arbitration requests) are
asserted empty rather than serialized.
"""

from typing import Any, Dict, List

from repro.core.config import TRAFFIC_MODELS
from repro.core.platform import EmulationPlatform
from repro.experiments.spec import ScenarioSpec

from .errors import CheckpointError
from .record import Checkpoint
from .walker import capture

__all__ = ["snapshot"]

#: Family tag of each checkpointable traffic model; restore checks the
#: model the spec rebuilds against it.
MODEL_KINDS = {cls: kind for kind, cls in TRAFFIC_MODELS.items()}


def _refs(flits, packets: Dict[int, Any]) -> List[List[int]]:
    """``[pid, seq, stall]`` per flit, registering each packet."""
    refs = []
    for flit in flits:
        packet = flit.packet
        packets[packet.pid] = packet
        refs.append([packet.pid, flit.seq, flit.stall_cycles])
    return refs


def _switch_state(sw, packets: Dict[int, Any]) -> Dict[str, Any]:
    if sw._req_ports or any(out.requests for out in sw._outputs):
        raise CheckpointError(
            f"switch {sw.switch_id} has pending arbitration requests;"
            f" snapshot only at a cycle boundary"
        )
    inputs = []
    for i, buf in enumerate(sw.inputs):
        head = sw._in_park_head[i]
        if head is not None:
            packets[head.packet.pid] = head.packet
        inputs.append({
            "fifo": _refs(buf._fifo, packets),
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
                None if head is None else [head.packet.pid, head.seq]
            ),
        })
    record = capture(sw)
    record["buffered"] = sw.buffered_flits
    for out, out_record in zip(sw._outputs, record["outputs"]):
        out_record["flits_sent"] = out.flits_sent
    record["scan"] = [entry[0] for entry in sw._scan]
    record["inputs"] = inputs
    return record


def _injector_state(injector) -> Dict[str, Any]:
    report = injector.report
    event_index = {
        id(event): idx
        for idx, event in enumerate(injector.schedule.events)
    }
    record_index = {id(rec): idx for idx, rec in enumerate(report.events)}
    record = capture(injector)
    record["report"]["events"] = [rec.to_dict() for rec in report.events]
    record["report"]["windows"] = [
        [w.label, w.start, w.end, w.packets_received]
        for w in report.windows
    ]
    record.update(
        dead_pairs=sorted([a, b] for a, b in injector._dead_pairs),
        saved_credit_keys=sorted(
            [sw_id, port] for sw_id, port in injector._saved_credit
        ),
        flaky=[
            [event_index[id(event)], record_index[id(rec)]]
            for event, _links, _threshold, rec in injector._flaky
        ],
        awaiting=[
            [record_index[id(rec)], packets_then]
            for rec, packets_then in injector._awaiting
        ],
        repaired=any(rec.repaired for rec in report.events),
    )
    return record


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
    model (an unknown traffic-model family, a mid-run faulted platform
    snapshotted without its engine, a field that is neither plain data
    nor declared in ``__rebuilt__``).
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
    switches = [_switch_state(sw, packets) for sw in network.switches]

    nis = []
    for ni in network.nis:
        record = capture(ni)
        record["flits"] = _refs(ni._flits, packets)
        nis.append(record)

    rx_state = []
    for rx in network.rx:
        record = capture(rx)
        record["partial"] = [
            [pid, [ref[1:] for ref in _refs(flits, packets)]]
            for pid, flits in rx._partial.items()
        ]
        rx_state.append(record)

    # --- the delivery wheels, slot by slot relative to this cycle.
    link_index = {id(link): i for i, link in enumerate(network.links)}
    wire_count = [0] * len(network.links)
    size = network._wheel_size
    flit_wheel = []
    for offset in range(size):
        slot = network._flit_wheel[(cycle + offset) % size]
        refs = _refs([flit for _link, flit in slot], packets)
        entries = []
        for (link, _flit), ref in zip(slot, refs):
            index = link_index[id(link)]
            wire_count[index] += 1
            entries.append([index, *ref])
        flit_wheel.append(entries)
    links = []
    for link, count in zip(network.links, wire_count):
        record = capture(link)
        record["wire_count"] = count
        links.append(record)

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
        entries = []
        for entry in network._credit_wheel[(cycle + offset) % size]:
            coord = entry_coord.get(id(entry))
            if coord is None:
                raise CheckpointError(
                    "credit wheel holds an entry no switch input"
                    " owns; cannot serialize"
                )
            entries.append(list(coord))
        credit_wheel.append(entries)

    generators = []
    for gen in platform.generators:
        kind = MODEL_KINDS.get(type(gen.model))
        if kind is None:
            raise CheckpointError(
                f"cannot checkpoint traffic model"
                f" {type(gen.model).__name__}: no family tag"
                f" registered in MODEL_KINDS"
            )
        record = capture(gen)
        record["model"]["kind"] = kind
        record["rng_state"] = gen.model.rng._lfsr.state
        generators.append(record)

    receptors = []
    for receptor in platform.receptors:
        record = capture(receptor)
        latency = getattr(receptor, "latency", None)
        if latency is not None:  # trace-driven
            record["latency"]["burst_acc"] = [
                [burst, acc[0], acc[1]]
                for burst, acc in latency._burst_acc.items()
            ]
        receptors.append(record)

    state: Dict[str, Any] = {
        "cycle": cycle,
        "next_pid": platform.next_pid,
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
        "platform": capture(platform),
        "receptors": receptors,
        "faults": None,
        "telemetry": None,
    }

    if schedule is not None and schedule.events:
        state["faults"] = {
            "schedule": schedule.to_dict(),
            "injector": (
                None if injector is None else _injector_state(injector)
            ),
        }
    if telemetry is not None:
        # The base is the stored boundary reading (pure data, settled
        # at its own boundary) — serialized, not recomputed, because
        # the checkpoint cycle can fall mid-window with activity since
        # the last boundary.
        base = telemetry._base
        record = state["telemetry"] = capture(telemetry)
        record["base"] = None if not base else [
            list(base[:6]),
            [list(sw) for sw in base[6]],
            [list(link) for link in base[7]],
        ]
        record["records"] = [w.to_dict() for w in telemetry.records]

    return Checkpoint(spec=spec, state=state)
