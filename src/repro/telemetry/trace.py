"""Flit/packet event tracing.

Opt-in hooks on the network's hot paths record one event per flit
injection, per link traversal (hop), per ejection, and per fault abort.
Events stream to JSONL (one canonical-JSON object per line) and export
to the Chrome/Perfetto ``trace_event`` format — one track per link,
one async span per packet — so a saturated or faulted run can be
scrubbed visually in ``chrome://tracing`` / ui.perfetto.dev exactly
like a hardware waveform.

Retained events are stored as columns, not dicts: one ``array`` per
field (kind code, ``where`` as an index into a names table, pid, seq,
extra, cycle), ~39 B per event against ~260 B as one dict each.
:attr:`FlitTracer.events` and the Perfetto records are built from
the columns when they are asked for.

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
from array import array
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

#: Kind names by their order code, the kind column's values.
_KIND_NAMES = tuple(sorted(_KIND_ORDER, key=_KIND_ORDER.__getitem__))
_FAULT, _ABORT, _INJECT, _HOP, _EJECT, _PACKET = (
    _KIND_ORDER[k]
    for k in ("fault", "abort", "inject", "hop", "eject", "packet")
)

#: A buffered event is ``(kind order, where, pid, seq, kind, extra,
#: cycle)``; its sort key is the first four fields.
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
_PERFETTO_BATCH = 256

#: Flushed events converted into the columns per batch: the
#: conversion's per-call costs stay off the per-cycle flush.
_BACKLOG_EVENTS = 1024


class _Names(dict):
    """Name -> index table; an unseen name gets the next index."""

    def __missing__(self, name: str) -> int:
        index = self[name] = len(self)
        return index


class FlitTracer:
    """Collects flit-level events from an attached network.

    Parameters
    ----------
    stream:
        Optional text file-like; each flushed event is written as one
        canonical JSON line (sorted keys, no spaces), one ``write``
        per emulated cycle.
    keep:
        Retain flushed events (required by :attr:`events`,
        :meth:`to_perfetto` and :meth:`write_perfetto`), at ~39 B per
        event in six columns; disable for huge streamed runs.  It
        changes only what is retained, never the stream.

    Attach with :meth:`~repro.noc.network.Network.attach_tracer`; call
    :meth:`close` after the run to flush the final cycle.
    """

    def __init__(
        self, stream: Optional[IO[str]] = None, keep: bool = True
    ) -> None:
        self.stream = stream
        self.keep = keep
        self._cycle = -1
        self._pending: List[tuple] = []
        # The retained events, one column per field.  ``_wheres``
        # indexes ``_names``, as does ``_extras`` on fault events (the
        # fault kind); on hops and ejects ``_extras`` is the link
        # flight, on the other kinds 0.  Flushed events wait in
        # ``_backlog`` as their buffered tuples and move into the
        # columns ``_BACKLOG_EVENTS`` at a time.
        self._backlog: List[tuple] = []
        self._names = _Names()
        self._kinds = array("b")
        self._wheres = array("i")
        self._pids = array("q")
        self._seqs = array("q")
        self._extras = array("q")
        self._cycles = array("q")

    @property
    def events(self) -> List[Dict[str, Any]]:
        """The retained events as dicts, oldest first (the JSONL schema).

        A fresh list built from the columns on every read, O(n) in
        time and ~260 B per event in memory: mutating it changes
        nothing in the tracer.  The final buffered cycle appears only
        after :meth:`close`.  Empty when ``keep`` is false.
        """
        self._settle()
        names = list(self._names)
        events = []
        append = events.append
        for code, where, pid, seq, extra, cycle in self._columns():
            event: Dict[str, Any] = {"cycle": cycle,
                                     "kind": _KIND_NAMES[code],
                                     "where": names[where], "pid": pid,
                                     "seq": seq}
            if code == _HOP or code == _EJECT:
                event["dur"] = extra
            elif code == _FAULT:
                event["fault"] = names[extra]
            append(event)
        return events

    def _columns(self) -> Iterator[tuple]:
        """``(kind code, where index, pid, seq, extra, cycle)`` rows."""
        return zip(self._kinds, self._wheres, self._pids, self._seqs,
                   self._extras, self._cycles)

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
        extra: Any = 0,
    ) -> None:
        if now != self._cycle:
            if self._pending:
                self._flush()
            self._cycle = now
        self._pending.append(
            (_KIND_ORDER[kind], where, pid, seq, kind, extra, now)
        )

    def _flush(self) -> None:
        """Emit the buffered cycle in canonical order, one write."""
        pending = self._pending
        pending.sort(key=_CANONICAL_KEY)
        now = self._cycle
        if self.keep:
            backlog = self._backlog
            backlog.extend(pending)
            if len(backlog) >= _BACKLOG_EVENTS:
                self._settle()
        if self.stream is not None:
            # Each line is canonical_json(event) + "\n", formatted
            # from the fixed schema (keys in sorted order).
            lines = []
            for _, where, pid, seq, kind, extra, _ in pending:
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

    def _settle(self) -> None:
        """Move the flushed events of the backlog into the columns."""
        backlog = self._backlog
        if not backlog:
            return
        codes, wheres, pids, seqs, _, extras, cycles = zip(*backlog)
        backlog.clear()
        names = self._names
        if _FAULT in codes:
            # A fault's extra is its kind, stored as a name index.
            extras = [
                names[extra] if isinstance(extra, str) else extra
                for extra in extras
            ]
        # Each column grows by one same-type array: a block copy.
        self._kinds.extend(array("b", codes))
        self._wheres.extend(array("i", map(names.__getitem__, wheres)))
        self._pids.extend(array("q", pids))
        self._seqs.extend(array("q", seqs))
        self._extras.extend(array("q", extras))
        self._cycles.extend(array("q", cycles))

    def close(self) -> None:
        """Flush the final buffered cycle into the stream and the
        columns (idempotent)."""
        if self._pending:
            self._flush()
        self._settle()

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
                "Perfetto export needs the kept events; construct"
                " the FlitTracer with keep=True"
            )
        self.close()
        names = list(self._names)
        tracks = {names[where] for where in self._wheres}
        tracks.discard("")
        tids = {name: i + 1 for i, name in enumerate(sorted(tracks))}
        yield {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
               "args": {"name": "noc-emulation"}}
        for name, tid in tids.items():
            yield {"name": "thread_name", "ph": "M", "pid": 0,
                   "tid": tid, "args": {"name": name}}
        # The tid of each names-table entry (0 for non-tracks).
        tid_of = [tids.get(name, 0) for name in names]
        span_open = set()
        for code, where, pid, seq, extra, cycle in self._columns():
            if code == _INJECT:
                if pid not in span_open:
                    span_open.add(pid)
                    yield {"name": f"packet {pid}", "cat": "packet",
                           "ph": "b", "id": pid, "ts": cycle, "pid": 0,
                           "tid": 0}
                yield {"name": f"p{pid}.f{seq}", "cat": "flit",
                       "ph": "i", "s": "t", "ts": cycle, "pid": 0,
                       "tid": tid_of[where]}
            elif code == _HOP or code == _EJECT:
                yield {"name": f"p{pid}.f{seq}",
                       "cat": _KIND_NAMES[code], "ph": "X",
                       "ts": cycle - extra, "dur": extra, "pid": 0,
                       "tid": tid_of[where],
                       "args": {"pid": pid, "seq": seq}}
            elif (code == _PACKET or code == _ABORT) and pid in span_open:
                yield {"name": f"packet {pid}", "cat": "packet",
                       "ph": "e", "id": pid, "ts": cycle, "pid": 0,
                       "tid": 0, "args": {"outcome": _KIND_NAMES[code]}}
                span_open.remove(pid)
            elif code == _FAULT:
                yield {"name": f"fault {names[extra]} {names[where]}",
                       "cat": "fault", "ph": "i", "s": "g", "ts": cycle,
                       "pid": 0, "tid": 0}

    def write_perfetto(self, path: str) -> None:
        """Write :meth:`to_perfetto` to ``path`` as JSON, atomically.

        The bytes equal ``json.dumps(self.to_perfetto())``, but the
        events are streamed: records are built from the columns and
        each batch of ``_PERFETTO_BATCH`` is one C-encoder
        ``json.dumps`` call, so neither the Perfetto record list nor
        the whole document is held in memory (~0.6 MiB peak on top of
        a 39,200-event trace).  Written through
        :func:`repro.util.atomic_write`, so an interrupted export
        leaves any earlier file at ``path`` intact.  Requires
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
