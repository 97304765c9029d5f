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
:attr:`FlitTracer.events` is built from the columns when it is asked
for.  Both outputs are formatted from ``%`` templates, one per record
shape, with every string quoted by the canonical encoder's own
``encode_basestring_ascii``: no dict is built on the way to a byte.

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

#: Kind names in canonical intra-cycle order; a kind's index is its
#: order code, the kind column's value.  Fault application precedes
#: its aborts, which precede the cycle's normal dataflow (injection
#: happens in the last network phase, but a flit injected at cycle
#: ``c`` reaches its first switch at ``c + delay``, so sorting injects
#: before hops of the same cycle never reorders cause after effect).
_KIND_NAMES = ("fault", "abort", "inject", "hop", "eject", "packet")
_KIND_ORDER = {kind: code for code, kind in enumerate(_KIND_NAMES)}
_FAULT, _ABORT, _INJECT, _HOP, _EJECT, _PACKET = range(6)

#: A buffered event is ``(kind code, where, pid, seq, extra, cycle)``;
#: its sort key is the first four fields.
_CANONICAL_KEY = itemgetter(0, 1, 2, 3)

#: JSONL line templates by kind code, keys in canonical (sorted)
#: order, each taking ``(cycle, extra, pid, seq, where)`` with the
#: strings pre-quoted; ``%.0s`` drops the extra of kinds without one.
_LINES = (
    '{"cycle":%d,"fault":%s,"kind":"fault","pid":%d,"seq":%d,'
    '"where":%s}\n',
    '{"cycle":%d,%.0s"kind":"abort","pid":%d,"seq":%d,"where":%s}\n',
    '{"cycle":%d,%.0s"kind":"inject","pid":%d,"seq":%d,"where":%s}\n',
    '{"cycle":%d,"dur":%d,"kind":"hop","pid":%d,"seq":%d,"where":%s}\n',
    '{"cycle":%d,"dur":%d,"kind":"eject","pid":%d,"seq":%d,'
    '"where":%s}\n',
    '{"cycle":%d,%.0s"kind":"packet","pid":%d,"seq":%d,"where":%s}\n',
)

#: Perfetto record templates, one per record shape: the key order of
#: the record's dict form and ``json.dumps``' default separators, so
#: the bytes are those ``json.dumps`` makes of that dict.
_PROCESS = ('{"name": "process_name", "ph": "M", "pid": 0, "tid": 0,'
            ' "args": {"name": "noc-emulation"}}')
_THREAD = ('{"name": "thread_name", "ph": "M", "pid": 0, "tid": %d,'
           ' "args": {"name": %s}}')
_SPAN_OPEN = ('{"name": "packet %d", "cat": "packet", "ph": "b",'
              ' "id": %d, "ts": %d, "pid": 0, "tid": 0}')
_SPAN_CLOSE = ('{"name": "packet %d", "cat": "packet", "ph": "e",'
               ' "id": %d, "ts": %d, "pid": 0, "tid": 0,'
               ' "args": {"outcome": "%s"}}')
_FLIT = ('{"name": "p%d.f%d", "cat": "flit", "ph": "i", "s": "t",'
         ' "ts": %d, "pid": 0, "tid": %d}')
_FLIGHT = ('{"name": "p%d.f%d", "cat": "%s", "ph": "X", "ts": %d,'
           ' "dur": %d, "pid": 0, "tid": %d, "args": {"pid": %d,'
           ' "seq": %d}}')
_FAULT_MARK = ('{"name": %s, "cat": "fault", "ph": "i", "s": "g",'
               ' "ts": %d, "pid": 0, "tid": 0}')

#: Records per chunk of :meth:`FlitTracer.write_perfetto`.
_PERFETTO_BATCH = 256

#: Flushed events converted into the columns per batch: the
#: conversion's per-call costs stay off the per-cycle flush.
_BACKLOG_EVENTS = 1024


def _batch_bytes(records: List[str]) -> bytes:
    """One chunk of the Perfetto export: its records, comma-joined."""
    return ", ".join(records).encode("ascii")


class _Quoted(dict):
    """Name -> its JSON string literal, quoted on first use."""

    def __missing__(self, name: str) -> str:
        quoted = self[name] = _json_str(name)
        return quoted


class _Names(dict):
    """Name -> index table; an unseen name gets the next index."""

    def __missing__(self, name: str) -> int:
        index = self[name] = len(self)
        return index


class FlitTracer:
    """Collects flit-level events from an attached network.

    Each hook appends its event to the cycle's buffer in one call; a
    new cycle first flushes the last one, sorted into canonical order,
    as one ``stream.write`` of lines formatted from a template per
    kind.  The stream's bytes are those of ``canonical_json(event)``
    per line, without building the event.

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
        self._add = self._pending.append
        self._quoted = _Quoted()
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
        if now != self._cycle:
            self._next_cycle(now)
        self._add((_INJECT, ni.name, flit.packet.pid, flit.seq, 0, now))

    def hop(self, now: int, link, flit) -> None:
        """A flit finished a link flight into a switch input buffer."""
        if now != self._cycle:
            self._next_cycle(now)
        self._add((_HOP, link.name, flit.packet.pid, flit.seq,
                   link.delay, now))

    def eject(self, now: int, link, flit) -> None:
        """A flit finished its ejection-link flight into reassembly."""
        if now != self._cycle:
            self._next_cycle(now)
        self._add((_EJECT, link.name, flit.packet.pid, flit.seq,
                   link.delay, now))

    def packet_done(self, now: int, rx, packet) -> None:
        """Reassembly completed a packet (its tail flit arrived)."""
        if now != self._cycle:
            self._next_cycle(now)
        self._add((_PACKET, rx.name, packet.pid, packet.length, 0, now))

    def abort(self, now: int, pid: int) -> None:
        """Fault injection flushed every trace of packet ``pid``."""
        if now != self._cycle:
            self._next_cycle(now)
        self._add((_ABORT, "", pid, 0, 0, now))

    def fault(self, now: int, kind: str, detail: str) -> None:
        """A fault-schedule event was applied to the fabric."""
        if now != self._cycle:
            self._next_cycle(now)
        self._add((_FAULT, detail, -1, 0, kind, now))

    # ------------------------------------------------------------------
    # Buffering + output
    # ------------------------------------------------------------------
    def _next_cycle(self, now: int) -> None:
        """Flush the buffered cycle, if any, and start cycle ``now``."""
        if self._pending:
            self._flush()
        self._cycle = now

    def _flush(self) -> None:
        """Emit the buffered cycle in canonical order, one write."""
        pending = self._pending
        pending.sort(key=_CANONICAL_KEY)
        if self.stream is not None:
            quoted = self._quoted
            self.stream.write("".join([
                _LINES[code] % (
                    now, quoted[extra] if code == _FAULT else extra,
                    pid, seq, quoted[where],
                )
                for code, where, pid, seq, extra, now in pending
            ]))
        if self.keep:
            backlog = self._backlog
            backlog += pending
            if len(backlog) >= _BACKLOG_EVENTS:
                self._settle()
        pending.clear()

    def _settle(self) -> None:
        """Move the flushed events of the backlog into the columns."""
        backlog = self._backlog
        if not backlog:
            return
        codes, wheres, pids, seqs, extras, cycles = zip(*backlog)
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
        microseconds by the viewers).  The document parsed back from
        the bytes :meth:`write_perfetto` writes.  Requires
        ``keep=True``; raises :class:`RuntimeError` otherwise.
        """
        return json.loads(b"".join(self._perfetto_chunks()))

    def write_perfetto(self, path: str) -> None:
        """Write :meth:`to_perfetto` to ``path`` as JSON, atomically.

        The bytes equal ``json.dumps(self.to_perfetto())``, formatted
        straight from the columns: one ``%`` template per record shape
        and each track name quoted once, with the escape
        ``json.dumps`` uses.  Each ``_PERFETTO_BATCH`` records are
        joined into one chunk, so the document is never held in memory
        (~0.6 MiB peak on top of a 39,200-event trace).  Written through
        :func:`repro.util.atomic_write`, so an interrupted export
        leaves any earlier file at ``path`` intact.  Requires
        ``keep=True``; raises :class:`RuntimeError` otherwise.
        """
        atomic_write(path, self._perfetto_chunks())

    def _perfetto_chunks(self) -> Iterator[bytes]:
        """The bytes of ``json.dumps(self.to_perfetto())``, in pieces."""
        records = self._perfetto_records()
        yield b'{"traceEvents": ['
        separator = b""
        while True:
            batch = list(itertools.islice(records, _PERFETTO_BATCH))
            if not batch:
                break
            yield separator
            yield _batch_bytes(batch)
            separator = b", "
        yield b'], "displayTimeUnit": "ms"}'

    def _perfetto_records(self) -> Iterator[str]:
        """The ``traceEvents`` records, each one JSON object's text."""
        if not self.keep:
            raise RuntimeError(
                "Perfetto export needs the kept events; construct"
                " the FlitTracer with keep=True"
            )
        self.close()
        names = list(self._names)
        # Every name some event happened at, but "" (an abort's).
        wheres = set(self._wheres)
        tracks = sorted(
            name for index, name in enumerate(names)
            if name and index in wheres
        )
        tids = {name: tid for tid, name in enumerate(tracks, 1)}
        yield _PROCESS
        for name, tid in tids.items():
            yield _THREAD % (tid, _json_str(name))
        # The tid of each names-table entry (0 for non-tracks).
        tid_of = [tids.get(name, 0) for name in names]
        span_open = set()
        for code, where, pid, seq, extra, cycle in self._columns():
            if code == _HOP or code == _EJECT:
                yield _FLIGHT % (pid, seq, _KIND_NAMES[code],
                                 cycle - extra, extra, tid_of[where],
                                 pid, seq)
            elif code == _INJECT:
                if pid not in span_open:
                    span_open.add(pid)
                    yield _SPAN_OPEN % (pid, pid, cycle)
                yield _FLIT % (pid, seq, cycle, tid_of[where])
            elif code == _FAULT:
                yield _FAULT_MARK % (
                    _json_str(f"fault {names[extra]} {names[where]}"),
                    cycle,
                )
            elif pid in span_open:  # a packet or an abort closes it
                yield _SPAN_CLOSE % (pid, pid, cycle, _KIND_NAMES[code])
                span_open.remove(pid)
