"""Flit/packet event tracing.

Opt-in hooks on the network's hot paths record one event per flit
injection, per link traversal (hop), per ejection, and per fault abort.
Events stream to JSONL (one canonical-JSON object per line) and export
to the Chrome/Perfetto ``trace_event`` format — one track per link,
one async span per packet — so a saturated or faulted run can be
scrubbed visually in ``chrome://tracing`` / ui.perfetto.dev exactly
like a hardware waveform.

Determinism: the two kernels drive the same per-cycle events but in
different intra-cycle orders (the event kernel iterates active lists,
the reference kernel scans everything).  The tracer therefore buffers
one cycle at a time and flushes it sorted by a canonical key
``(kind, where, pid, seq)``; the streams and event lists of the two
kernels are bit-identical (see ``tests/telemetry/test_trace.py`` and
the parity suite).
"""

from __future__ import annotations

import itertools
import json
from json.encoder import encode_basestring_ascii as _json_str
from operator import itemgetter
from typing import IO, Any, Dict, Iterator, List, Optional

from repro.util import atomic_write

#: Canonical intra-cycle order: fault application precedes its aborts,
#: which precede the cycle's normal dataflow (injection happens in the
#: last network phase, but a flit injected at cycle ``c`` reaches its
#: first switch at ``c + delay``, so sorting injects before hops of
#: the same cycle never reorders cause after effect).
_KIND_ORDER = {
    "fault": 0,
    "abort": 1,
    "inject": 2,
    "hop": 3,
    "eject": 4,
    "packet": 5,
}

#: Sort key of a buffered event: ``(kind order, where, pid, seq)``.
_CANONICAL_KEY = itemgetter(0, 1, 2, 3)

#: JSONL line templates, keys in canonical (sorted) order; strings
#: are pre-quoted by ``_json_str``, the canonical encoder's own escape.
_PLAIN_LINE = '{"cycle":%d,"kind":"%s","pid":%d,"seq":%d,"where":%s}\n'
_TIMED_LINE = (
    '{"cycle":%d,"dur":%d,"kind":"%s","pid":%d,"seq":%d,"where":%s}\n'
)
_FAULT_LINE = (
    '{"cycle":%d,"fault":%s,"kind":"fault","pid":%d,"seq":%d,'
    '"where":%s}\n'
)

#: Events per ``json.dumps`` call in :meth:`FlitTracer.write_perfetto`.
_PERFETTO_BATCH = 1024


class FlitTracer:
    """Collects flit-level events from an attached network.

    Parameters
    ----------
    stream:
        Optional text file-like; each flushed event is written as one
        canonical JSON line (sorted keys, no spaces), one ``write``
        per emulated cycle.
    keep:
        Keep flushed events in :attr:`events` (required by
        :meth:`to_perfetto` and :meth:`write_perfetto`; disable for
        huge streamed runs).

    Attach with :meth:`~repro.noc.network.Network.attach_tracer`; call
    :meth:`close` after the run to flush the final cycle.
    """

    def __init__(
        self, stream: Optional[IO[str]] = None, keep: bool = True
    ) -> None:
        self.stream = stream
        self.keep = keep
        self.events: List[Dict[str, Any]] = []
        self._cycle = -1
        self._pending: List[tuple] = []

    # ------------------------------------------------------------------
    # Hooks (called by the network / fault injector)
    # ------------------------------------------------------------------
    def inject(self, now: int, ni, flit) -> None:
        """A flit left an NI source queue onto its injection link."""
        self._note(now, "inject", ni.name, flit.packet.pid, flit.seq)

    def hop(self, now: int, link, flit) -> None:
        """A flit finished a link flight into a switch input buffer."""
        self._note(
            now,
            "hop",
            link.name,
            flit.packet.pid,
            flit.seq,
            link.delay,
        )

    def eject(self, now: int, link, flit) -> None:
        """A flit finished its ejection-link flight into reassembly."""
        self._note(
            now,
            "eject",
            link.name,
            flit.packet.pid,
            flit.seq,
            link.delay,
        )

    def packet_done(self, now: int, rx, packet) -> None:
        """Reassembly completed a packet (its tail flit arrived)."""
        self._note(now, "packet", rx.name, packet.pid, packet.length)

    def abort(self, now: int, pid: int) -> None:
        """Fault injection flushed every trace of packet ``pid``."""
        self._note(now, "abort", "", pid, 0)

    def fault(self, now: int, kind: str, detail: str) -> None:
        """A fault-schedule event was applied to the fabric."""
        self._note(now, "fault", detail, -1, 0, kind)

    # ------------------------------------------------------------------
    # Buffering + output
    # ------------------------------------------------------------------
    def _note(
        self,
        now: int,
        kind: str,
        where: str,
        pid: int,
        seq: int,
        extra: Any = None,
    ) -> None:
        if now != self._cycle:
            if self._pending:
                self._flush()
            self._cycle = now
        self._pending.append(
            (_KIND_ORDER[kind], where, pid, seq, kind, extra)
        )

    def _flush(self) -> None:
        """Emit the buffered cycle in canonical order, one write."""
        pending = self._pending
        pending.sort(key=_CANONICAL_KEY)
        now = self._cycle
        if self.keep:
            append = self.events.append
            for _, where, pid, seq, kind, extra in pending:
                event: Dict[str, Any] = {"cycle": now, "kind": kind,
                                         "where": where, "pid": pid,
                                         "seq": seq}
                if kind in ("hop", "eject"):
                    event["dur"] = extra
                elif kind == "fault":
                    event["fault"] = extra
                append(event)
        if self.stream is not None:
            # Each line is canonical_json(event) + "\n", formatted
            # from the fixed schema (keys in sorted order).
            lines = []
            for _, where, pid, seq, kind, extra in pending:
                if kind in ("hop", "eject"):
                    line = _TIMED_LINE % (
                        now, extra, kind, pid, seq, _json_str(where)
                    )
                elif kind == "fault":
                    line = _FAULT_LINE % (
                        now, _json_str(extra), pid, seq, _json_str(where)
                    )
                else:
                    line = _PLAIN_LINE % (
                        now, kind, pid, seq, _json_str(where)
                    )
                lines.append(line)
            self.stream.write("".join(lines))
        del pending[:]

    def close(self) -> None:
        """Flush the final buffered cycle (idempotent)."""
        if self._pending:
            self._flush()

    # ------------------------------------------------------------------
    # Perfetto export
    # ------------------------------------------------------------------
    def to_perfetto(self) -> Dict[str, Any]:
        """Chrome ``trace_event`` JSON: link tracks + packet spans.

        One timeline track (tid) per link/NI/RX name carrying its
        flit-level events (hops and ejects as complete "X" slices over
        their link flight, injects as instants), plus one async span
        per packet from its first injected flit to its completion or
        abort.  Timestamps are emulated cycles (rendered as
        microseconds by the viewers).  Requires ``keep=True``; raises
        :class:`RuntimeError` otherwise.
        """
        return {
            "traceEvents": list(self._perfetto_events()),
            "displayTimeUnit": "ms",
        }

    def _perfetto_events(self) -> Iterator[Dict[str, Any]]:
        """The ``traceEvents`` of :meth:`to_perfetto`, one at a time."""
        if not self.keep:
            raise RuntimeError(
                "Perfetto export needs the kept event list; construct"
                " the FlitTracer with keep=True"
            )
        self.close()
        events = self.events
        tracks = sorted({e["where"] for e in events if e["where"]})
        tids = {name: i + 1 for i, name in enumerate(tracks)}
        yield {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
               "args": {"name": "noc-emulation"}}
        for name, tid in tids.items():
            yield {"name": "thread_name", "ph": "M", "pid": 0,
                   "tid": tid, "args": {"name": name}}
        span_open: Dict[int, int] = {}
        for e in events:
            kind = e["kind"]
            pid = e["pid"]
            cycle = e["cycle"]
            if kind == "inject":
                if pid not in span_open:
                    span_open[pid] = cycle
                    yield {"name": f"packet {pid}", "cat": "packet",
                           "ph": "b", "id": pid, "ts": cycle, "pid": 0,
                           "tid": 0}
                yield {"name": f"p{pid}.f{e['seq']}", "cat": "flit",
                       "ph": "i", "s": "t", "ts": cycle, "pid": 0,
                       "tid": tids[e["where"]]}
            elif kind in ("hop", "eject"):
                dur = e["dur"]
                yield {"name": f"p{pid}.f{e['seq']}", "cat": kind,
                       "ph": "X", "ts": cycle - dur, "dur": dur,
                       "pid": 0, "tid": tids[e["where"]],
                       "args": {"pid": pid, "seq": e["seq"]}}
            elif kind in ("packet", "abort") and pid in span_open:
                yield {"name": f"packet {pid}", "cat": "packet",
                       "ph": "e", "id": pid, "ts": cycle, "pid": 0,
                       "tid": 0, "args": {"outcome": kind}}
                del span_open[pid]
            elif kind == "fault":
                yield {"name": f"fault {e['fault']} {e['where']}",
                       "cat": "fault", "ph": "i", "s": "g", "ts": cycle,
                       "pid": 0, "tid": 0}

    def write_perfetto(self, path: str) -> None:
        """Write :meth:`to_perfetto` to ``path`` as JSON, atomically.

        The bytes equal ``json.dumps(self.to_perfetto())``, but the
        events are streamed: each batch of ``_PERFETTO_BATCH`` events
        is one C-encoder ``json.dumps`` call, so neither the Perfetto
        record list nor the whole document is held in memory.  Written
        through :func:`repro.util.atomic_write`, so an interrupted
        export leaves any earlier file at ``path`` intact.  Requires
        ``keep=True``; raises :class:`RuntimeError` otherwise.
        """
        atomic_write(path, self._perfetto_chunks())

    def _perfetto_chunks(self) -> Iterator[bytes]:
        """The bytes of ``json.dumps(self.to_perfetto())``, in pieces."""
        events = self._perfetto_events()
        yield b'{"traceEvents": ['
        separator = b""
        while True:
            batch = list(itertools.islice(events, _PERFETTO_BATCH))
            if not batch:
                break
            # The list's brackets are stripped; batches join with the
            # default item separator.
            text = json.dumps(batch)  # repro: allow[canonical-json] Chrome/Perfetto viewer export, not a deterministic record
            yield separator
            yield text[1:-1].encode("ascii")
            separator = b", "
        yield b'], "displayTimeUnit": "ms"}'
