"""Windowed time-series metrics from boundary differencing.

The paper's monitor "displays information extracted from NoC emulation
components" *while the emulation runs* — but the only mid-run hook the
reproduction had (``Network.sample_buffers``) samples every buffer
every cycle, which disables idle fast-forward and un-optimises the run
being watched.  :class:`WindowedMetrics` takes the opposite approach:
every counter it reports is one the components already maintain under
the PR 4/5 settle-on-read discipline (switch blocked/credit stalls, NI
stalls, generator backpressure, link/NI/RX flit counts), so a window's
metrics are the *difference of two counter snapshots taken at the
window boundaries*.  Parked inputs, parked NIs and idle fast-forward
stay fully enabled: nothing is sampled per cycle, and the snapshot at
a boundary settles every parked stretch through the previous cycle by
construction (the settle-on-read properties do exactly that).

Windows are aligned to the cycle :meth:`WindowedMetrics.begin` ran at:
window *k* covers cycles ``[begin + k*w, begin + (k+1)*w)``.  The
driver calls :meth:`advance` at the top of each cycle; counters are
settled through the previous cycle at that point, so a window closed
at its boundary ``B`` covers exactly the emulated cycles ``start ..
B-1``.  An idle fast-forward jump lands on a window boundary (see
:meth:`ff_landing`) and may cross many boundaries at once: the first
window closes from one real snapshot and every fully-skipped window is
emitted as a zero-delta record in O(1) — the jump requires a quiescent
fabric, during which no counter can change and nothing is buffered,
parked or in flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Tuple

from repro.core.errors import ConfigError


@dataclass(frozen=True)
class WindowRecord:
    """Metrics of one window: deltas over ``[start, end)`` plus an
    instantaneous occupancy reading at the ``end`` boundary.

    All delta fields are counter differences between the window's two
    boundary snapshots; ``switch_buffered``, ``parked_inputs`` and
    ``in_flight_flits`` are the state *at* the closing boundary (i.e.
    after cycle ``end - 1``).  Records are deterministic — no
    wall-clock — and compare bit-identical across the event and
    reference kernels.
    """

    index: int
    start: int
    end: int
    # Network-wide deltas.
    injected_flits: int
    injected_packets: int
    ejected_flits: int
    ejected_packets: int
    forwarded_flits: int
    blocked_flit_cycles: int
    credit_stall_cycles: int
    ni_stall_cycles: int
    backpressure_cycles: int
    fault_dropped_flits: int
    # Per-component deltas (switch index order; links keyed by name,
    # zero-delta links omitted).
    switch_forwarded: Tuple[int, ...]
    switch_blocked: Tuple[int, ...]
    switch_credit_stalls: Tuple[int, ...]
    link_flits: Mapping[str, int] = field(default_factory=dict)
    # Instantaneous state at the closing boundary.
    switch_buffered: Tuple[int, ...] = ()
    parked_inputs: int = 0
    in_flight_flits: int = 0

    @property
    def cycles(self) -> int:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form (sorted link keys, lists for tuples)."""
        return {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "injected_flits": self.injected_flits,
            "injected_packets": self.injected_packets,
            "ejected_flits": self.ejected_flits,
            "ejected_packets": self.ejected_packets,
            "forwarded_flits": self.forwarded_flits,
            "blocked_flit_cycles": self.blocked_flit_cycles,
            "credit_stall_cycles": self.credit_stall_cycles,
            "ni_stall_cycles": self.ni_stall_cycles,
            "backpressure_cycles": self.backpressure_cycles,
            "fault_dropped_flits": self.fault_dropped_flits,
            "switch_forwarded": list(self.switch_forwarded),
            "switch_blocked": list(self.switch_blocked),
            "switch_credit_stalls": list(self.switch_credit_stalls),
            "link_flits": {
                name: self.link_flits[name]
                for name in sorted(self.link_flits)
            },
            "switch_buffered": list(self.switch_buffered),
            "parked_inputs": self.parked_inputs,
            "in_flight_flits": self.in_flight_flits,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WindowRecord":
        """Inverse of :meth:`to_dict` (lists back to tuples)."""
        fields = dict(data)
        for name in ("switch_forwarded", "switch_blocked",
                     "switch_credit_stalls", "switch_buffered"):
            fields[name] = tuple(fields[name])
        fields["link_flits"] = dict(fields["link_flits"])
        return cls(**fields)


class WindowedMetrics:
    """Collects a :class:`WindowRecord` time series from a platform.

    Parameters
    ----------
    platform:
        The :class:`~repro.core.platform.EmulationPlatform` to observe.
    window_cycles:
        Window length in emulated cycles (>= 1).

    The driving loop calls :meth:`begin` once at the start cycle and
    :meth:`advance` at the top of every cycle at or past the returned
    boundary (the engine keeps the next boundary in a register and
    compares once per cycle, exactly like its fault-event check); a
    final :meth:`finish` closes the partial last window.  Between
    boundary crossings the collector costs *nothing* — no per-cycle
    callback, no sampling.
    """

    #: Not checkpointed as values (see :mod:`repro.checkpoint.walker`):
    #: component caches re-resolved against the restored platform,
    #: zero templates, and the records and differencing base, which
    #: checkpoint code serializes itself.
    __rebuilt__ = (
        "platform", "records", "_network", "_switches", "_nis", "_rx",
        "_links", "_generators", "_base", "_zero_sw", "_zero_record",
    )

    def __init__(self, platform, window_cycles: int) -> None:
        if not isinstance(window_cycles, int) or isinstance(
            window_cycles, bool
        ):
            raise ConfigError(
                f"window_cycles must be an int, got"
                f" {type(window_cycles).__name__}"
            )
        if window_cycles < 1:
            raise ConfigError(
                f"window_cycles must be >= 1, got {window_cycles}"
            )
        self.platform = platform
        self.window_cycles = window_cycles
        self.records: List[WindowRecord] = []
        network = platform.network
        self._network = network
        self._switches = network.switches
        self._nis = network.nis
        self._rx = network.rx
        self._links = network.links
        self._generators = platform.generators
        self._started = False
        self._start = 0
        self._boundary = 0
        self._base: tuple = ()
        n_sw = len(self._switches)
        self._zero_sw = (0,) * n_sw
        # Template for the zero-delta records of fully-skipped windows:
        # only index/start/end differ, so each one is a single
        # ``replace`` call.
        self._zero_record = WindowRecord(
            index=0,
            start=0,
            end=0,
            injected_flits=0,
            injected_packets=0,
            ejected_flits=0,
            ejected_packets=0,
            forwarded_flits=0,
            blocked_flit_cycles=0,
            credit_stall_cycles=0,
            ni_stall_cycles=0,
            backpressure_cycles=0,
            fault_dropped_flits=0,
            switch_forwarded=self._zero_sw,
            switch_blocked=self._zero_sw,
            switch_credit_stalls=self._zero_sw,
            link_flits={},
            switch_buffered=self._zero_sw,
            parked_inputs=0,
            in_flight_flits=0,
        )

    # ------------------------------------------------------------------
    # Driving interface
    # ------------------------------------------------------------------
    def begin(self, now: int) -> int:
        """Open the first window at ``now``; return its boundary.

        Idempotent: a collector handed to a second engine run keeps
        accumulating into its current window.
        """
        if self._started:
            return self._boundary
        self._started = True
        self._start = now
        self._boundary = now + self.window_cycles
        self._base = self._snapshot()
        return self._boundary

    def advance(self, now: int) -> int:
        """Close every window whose boundary is ``<= now``; return the
        next boundary.

        Called at the top of cycle ``now`` (before the cycle runs):
        every counter is settled through ``now - 1``, so the closed
        windows cover exactly their emulated cycles.  A call that
        crosses several boundaries at once can only come from an idle
        fast-forward jump over a quiescent fabric, so the first window
        closes from one real snapshot and the rest are zero-delta.
        """
        boundary = self._boundary
        if now < boundary:
            return boundary
        w = self.window_cycles
        snap = self._snapshot()
        self.records.append(
            self._close(self._start, boundary, snap)
        )
        self._start = boundary
        boundary += w
        if boundary <= now:
            # Fast-forwarded stretch: nothing ran, nothing changed.
            records = self.records
            template = self._zero_record
            while boundary <= now:
                records.append(
                    replace(
                        template,
                        index=len(records),
                        start=self._start,
                        end=boundary,
                    )
                )
                self._start = boundary
                boundary += w
        self._base = snap
        self._boundary = boundary
        return boundary

    def finish(self, now: int) -> None:
        """Close out the series at ``now`` (end of run).

        Closes any whole windows still pending, then emits the partial
        window ``[start, now)`` if the run ended mid-window.
        """
        if not self._started:
            return
        if now >= self._boundary:
            self.advance(now)
        if now > self._start:
            snap = self._snapshot()
            self.records.append(self._close(self._start, now, snap))
            self._base = snap
            self._start = now
            self._boundary = now + self.window_cycles

    def ff_landing(self, target: int) -> int:
        """Clamp an idle fast-forward target onto a window boundary.

        Returns ``target`` unchanged when the jump stays inside the
        current window; otherwise the last boundary ``<= target``, so
        the skipped windows are emitted by the :meth:`advance` at the
        landing cycle (the remaining sub-window idle stretch is jumped
        by the next fast-forward, now boundary-free).
        """
        boundary = self._boundary
        if target <= boundary:
            return target
        w = self.window_cycles
        return boundary + (target - boundary) // w * w

    # ------------------------------------------------------------------
    # Snapshot + differencing
    # ------------------------------------------------------------------
    def _snapshot(self) -> tuple:
        """One settled reading of every counter the windows report."""
        inj_f = inj_p = stalls = 0
        for ni in self._nis:
            f, p, s = ni.stats_snapshot()
            inj_f += f
            inj_p += p
            stalls += s
        ej_f = ej_p = 0
        for rx in self._rx:
            f, p = rx.stats_snapshot()
            ej_f += f
            ej_p += p
        sw_stats = tuple(
            sw.stats_snapshot() for sw in self._switches
        )
        link_stats = tuple(
            link.stats_snapshot() for link in self._links
        )
        backpressure = sum(
            g.backpressure_cycles for g in self._generators
        )
        return (
            inj_f,
            inj_p,
            ej_f,
            ej_p,
            stalls,
            backpressure,
            sw_stats,
            link_stats,
        )

    def _close(self, start: int, end: int, snap: tuple) -> WindowRecord:
        """Build the record for ``[start, end)`` from ``snap - base``."""
        base = self._base
        sw_stats = snap[6]
        sw_base = base[6]
        n = len(sw_stats)
        fwd = [0] * n
        blocked = [0] * n
        credit = [0] * n
        for i in range(n):
            f1, b1, c1 = sw_stats[i]
            f0, b0, c0 = sw_base[i]
            fwd[i] = f1 - f0
            blocked[i] = b1 - b0
            credit[i] = c1 - c0
        link_flits: Dict[str, int] = {}
        dropped = 0
        links = self._links
        link_base = base[7]
        for i, (carried, drops) in enumerate(snap[7]):
            carried0, drops0 = link_base[i]
            delta = carried - carried0
            if delta:
                link_flits[links[i].name] = delta
            dropped += drops - drops0
        network = self._network
        parked = sum(sw._parked_count for sw in self._switches)
        for ni in self._nis:
            # Pure-state starvation test rather than the kernel's
            # ``_parked`` flag: the reference kernel never parks NIs,
            # and parity requires identical records from both.
            if ni._flits and ni._credits <= 0:
                parked += 1
        return WindowRecord(
            index=len(self.records),
            start=start,
            end=end,
            injected_flits=snap[0] - base[0],
            injected_packets=snap[1] - base[1],
            ejected_flits=snap[2] - base[2],
            ejected_packets=snap[3] - base[3],
            forwarded_flits=sum(fwd),
            blocked_flit_cycles=sum(blocked),
            credit_stall_cycles=sum(credit),
            ni_stall_cycles=snap[4] - base[4],
            backpressure_cycles=snap[5] - base[5],
            fault_dropped_flits=dropped,
            switch_forwarded=tuple(fwd),
            switch_blocked=tuple(blocked),
            switch_credit_stalls=tuple(credit),
            link_flits=link_flits,
            switch_buffered=tuple(
                sw.buffered_flits for sw in self._switches
            ),
            parked_inputs=parked,
            in_flight_flits=network._in_flight_flits,
        )


def format_window_table(records: List[WindowRecord]) -> str:
    """Render a window series as an aligned text table.

    Shows the first and last rows when the series is longer than
    twelve, with an ellipsis row in between.
    """
    limit = 12
    headers = (
        "win",
        "cycles",
        "inj",
        "ej",
        "blocked",
        "credit",
        "parked",
        "in-flight",
    )
    if len(records) > limit:
        head = limit // 2
        shown: List[Any] = list(records[:head])
        shown.append(None)
        shown.extend(records[-(limit - head):])
    else:
        shown = list(records)
    rows: List[Tuple[str, ...]] = []
    for rec in shown:
        if rec is None:
            rows.append(("...",) + ("",) * (len(headers) - 1))
            continue
        rows.append(
            (
                str(rec.index),
                f"{rec.start}-{rec.end}",
                str(rec.injected_flits),
                str(rec.ejected_flits),
                str(rec.blocked_flit_cycles),
                str(rec.credit_stall_cycles),
                str(rec.parked_inputs),
                str(rec.in_flight_flits),
            )
        )
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows))
        if rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.rjust(widths[i]) for i, h in enumerate(headers))
    ]
    for row in rows:
        lines.append(
            "  ".join(c.rjust(widths[i]) for i, c in enumerate(row))
        )
    return "\n".join(lines)
