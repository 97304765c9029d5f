"""Flit tracer: JSONL canonical stream, attach/detach contract,
fault/abort events and the Perfetto export."""

import io
import itertools
import json
import os
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import EmulationEngine
from repro.core.platform import build_platform
from repro.experiments.spec import ScenarioSpec
from repro.faults import FaultSchedule, link_down
from repro.telemetry import FlitTracer, trace
from repro.telemetry.trace import _KIND_ORDER
from repro.util import canonical_json


def fresh_platform(**kwargs):
    kwargs.setdefault("packets", 60)
    spec = ScenarioSpec(topology="paper", **kwargs)
    return build_platform(spec.to_platform_config())


def traced_run(faults=None, keep=True, **kwargs):
    platform = fresh_platform(**kwargs)
    stream = io.StringIO()
    tracer = FlitTracer(stream=stream, keep=keep)
    platform.network.attach_tracer(tracer)
    result = EmulationEngine(platform, faults=faults).run()
    platform.network.detach_tracer()
    tracer.close()
    return platform, result, tracer, stream.getvalue()


class TestAttachment:
    def test_double_attach_rejected(self):
        platform = fresh_platform()
        platform.network.attach_tracer(FlitTracer())
        with pytest.raises(RuntimeError):
            platform.network.attach_tracer(FlitTracer())

    def test_detach_returns_tracer(self):
        platform = fresh_platform()
        tracer = FlitTracer()
        platform.network.attach_tracer(tracer)
        assert platform.network.detach_tracer() is tracer

    def test_close_is_idempotent(self):
        _, _, tracer, _ = traced_run()
        n = len(tracer.events)
        tracer.close()
        tracer.close()
        assert len(tracer.events) == n


class TestStream:
    def test_jsonl_lines_match_kept_events(self):
        _, _, tracer, text = traced_run()
        lines = text.splitlines()
        assert lines
        parsed = [json.loads(line) for line in lines]
        assert parsed == tracer.events

    def test_lines_are_canonical_json(self):
        _, _, _, text = traced_run()
        for line in text.splitlines():
            event = json.loads(line)
            assert line == json.dumps(
                event, sort_keys=True, separators=(",", ":")
            )

    def test_keep_false_streams_without_retaining(self):
        _, _, tracer, text = traced_run(keep=False)
        assert tracer.events == []
        assert text.splitlines()

    def test_events_sorted_within_each_cycle(self):
        _, _, tracer, _ = traced_run()
        for _, group in itertools.groupby(
            tracer.events, key=lambda e: e["cycle"]
        ):
            keys = [
                (_KIND_ORDER[e["kind"]], e["where"], e["pid"], e["seq"])
                for e in group
            ]
            assert keys == sorted(keys)

    def test_every_flit_fully_accounted(self):
        platform, _, tracer, _ = traced_run()
        kinds = {}
        for e in tracer.events:
            kinds[e["kind"]] = kinds.get(e["kind"], 0) + 1
        injected = sum(
            ni.injected_flits for ni in platform.network.nis
        )
        ejected = sum(rx.received_flits for rx in platform.network.rx)
        assert kinds["inject"] == injected
        assert kinds["eject"] == ejected
        assert kinds["packet"] == platform.packets_received
        assert kinds["hop"] > 0
        # Every hop and eject reports its link's flight time.
        assert all(
            e["dur"] >= 1
            for e in tracer.events
            if e["kind"] in ("hop", "eject")
        )


class TestFaultEvents:
    SCHEDULE = FaultSchedule.of(
        link_down(300, 1, 4), link_down(300, 4, 1)
    )

    def test_fault_and_abort_events_recorded(self):
        platform, result, tracer, _ = traced_run(
            faults=self.SCHEDULE, packets=200, load=0.9
        )
        faults = [e for e in tracer.events if e["kind"] == "fault"]
        assert [e["fault"] for e in faults] == [
            "link_down", "link_down"
        ]
        assert all(e["cycle"] == 300 for e in faults)
        aborts = [e for e in tracer.events if e["kind"] == "abort"]
        assert len(aborts) == result.faults.dropped_packets
        assert [e["pid"] for e in aborts] == sorted(
            e["pid"] for e in aborts
        )


class TestPerfetto:
    def test_structure(self):
        _, _, tracer, _ = traced_run()
        doc = tracer.to_perfetto()
        events = doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ms"
        meta = [e for e in events if e["ph"] == "M"]
        tracks = {e["where"] for e in tracer.events if e["where"]}
        # One process_name plus one thread_name per track.
        assert len(meta) == 1 + len(tracks)
        names = {
            e["args"]["name"]
            for e in meta
            if e["name"] == "thread_name"
        }
        assert names == tracks
        # Async packet spans balance: every open has a close.
        opens = [e for e in events if e["ph"] == "b"]
        closes = [e for e in events if e["ph"] == "e"]
        assert {e["id"] for e in opens} == {e["id"] for e in closes}
        # Complete slices span the link flight.
        slices = [e for e in events if e["ph"] == "X"]
        assert slices
        for e in slices:
            assert e["dur"] >= 1 and e["ts"] >= 0

    def test_aborted_packets_close_with_outcome(self):
        _, result, tracer, _ = traced_run(
            faults=TestFaultEvents.SCHEDULE, packets=200, load=0.9
        )
        assert result.faults.dropped_packets > 0
        closes = {
            e["id"]: e["args"]["outcome"]
            for e in tracer.to_perfetto()["traceEvents"]
            if e["ph"] == "e"
        }
        assert "abort" in closes.values()
        aborted = {
            e["pid"] for e in tracer.events if e["kind"] == "abort"
        }
        for pid in aborted:
            if pid in closes:
                assert closes[pid] == "abort"

    def test_write_perfetto(self, tmp_path):
        _, _, tracer, _ = traced_run()
        path = tmp_path / "trace.json"
        tracer.write_perfetto(str(path))
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]


#: Trace strings the schema formatter must escape exactly like the
#: canonical encoder: quotes, backslashes, control characters,
#: non-ASCII (including astral-plane) text.
NASTY_TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\/\x00\x1f\x7f\n\té€𝄞'), st.characters()
    ),
    max_size=12,
)

#: One hook call: (cycle advance, kind, where/detail, pid, seq, extra).
HOOK_CALLS = st.tuples(
    st.integers(0, 2),
    st.sampled_from(sorted(_KIND_ORDER)),
    NASTY_TEXT,
    st.integers(-1, 2**40),
    st.integers(0, 64),
    st.one_of(st.integers(1, 9), NASTY_TEXT),
)


def drive(tracer, calls):
    """Feed synthetic hook calls to ``tracer`` (no network needed)."""
    now = 0
    for step, kind, text, pid, seq, extra in calls:
        now += step
        packet = SimpleNamespace(pid=pid, length=seq)
        flit = SimpleNamespace(packet=packet, seq=seq)
        delay = extra if isinstance(extra, int) else 1
        link = SimpleNamespace(name=text, delay=delay)
        if kind == "inject":
            tracer.inject(now, SimpleNamespace(name=text), flit)
        elif kind in ("hop", "eject"):
            getattr(tracer, kind)(now, link, flit)
        elif kind == "packet":
            tracer.packet_done(now, SimpleNamespace(name=text), packet)
        elif kind == "abort":
            tracer.abort(now, pid)
        else:
            tracer.fault(now, extra if isinstance(extra, str) else text,
                         text)
    tracer.close()


class TestLineBytes:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(HOOK_CALLS, max_size=40))
    def test_every_line_is_canonical_json_of_its_event(self, calls):
        stream = io.StringIO()
        tracer = FlitTracer(stream=stream)
        drive(tracer, calls)
        expected = "".join(
            canonical_json(e) + "\n" for e in tracer.events
        )
        assert stream.getvalue() == expected
        assert len(tracer.events) == len(calls)

    def test_all_six_kinds_and_pid_minus_one(self):
        stream = io.StringIO()
        tracer = FlitTracer(stream=stream)
        drive(tracer, [
            (0, "fault", 'a"b\\c\x01é', -1, 0, "link_down"),
            (0, "abort", "", -1, 0, None),
            (0, "inject", "ni\n0", 7, 0, None),
            (1, "hop", "s0->s1", 7, 0, 2),
            (0, "eject", "s1->rx", 7, 1, 1),
            (1, "packet", "rx€", 7, 8, None),
        ])
        assert {e["kind"] for e in tracer.events} == set(_KIND_ORDER)
        lines = stream.getvalue().splitlines()
        assert lines == [canonical_json(e) for e in tracer.events]

    def test_one_write_per_cycle(self):
        writes = []
        stream = SimpleNamespace(write=writes.append)
        _, _, tracer, _ = traced_run()
        replay = FlitTracer(stream=stream, keep=False)
        platform = fresh_platform()
        platform.network.attach_tracer(replay)
        EmulationEngine(platform).run()
        replay.close()
        assert len(writes) == len({e["cycle"] for e in tracer.events})
        assert "".join(writes) == "".join(
            canonical_json(e) + "\n" for e in tracer.events
        )


class TestPerfettoBytes:
    def test_write_matches_json_dumps_across_batches(
        self, tmp_path, monkeypatch
    ):
        _, _, tracer, _ = traced_run()
        expected = json.dumps(tracer.to_perfetto()).encode("ascii")
        assert len(tracer.to_perfetto()["traceEvents"]) > 1024
        for batch in (1, 7, 1024):
            monkeypatch.setattr(trace, "_PERFETTO_BATCH", batch)
            path = tmp_path / f"trace-{batch}.json"
            tracer.write_perfetto(str(path))
            assert path.read_bytes() == expected

    def test_empty_trace(self, tmp_path):
        tracer = FlitTracer()
        path = tmp_path / "empty.json"
        tracer.write_perfetto(str(path))
        doc = tracer.to_perfetto()
        assert len(doc["traceEvents"]) == 1  # process_name only
        assert path.read_bytes() == json.dumps(doc).encode("ascii")

    def test_keep_false_export_raises(self, tmp_path):
        _, _, tracer, text = traced_run(keep=False)
        assert text
        with pytest.raises(RuntimeError, match="keep=True"):
            tracer.to_perfetto()
        path = tmp_path / "trace.json"
        path.write_text("previous export")
        with pytest.raises(RuntimeError, match="keep=True"):
            tracer.write_perfetto(str(path))
        assert path.read_text() == "previous export"
        assert os.listdir(str(tmp_path)) == ["trace.json"]

    def test_interrupted_export_keeps_previous_file(
        self, tmp_path, monkeypatch
    ):
        _, _, tracer, _ = traced_run()
        path = tmp_path / "trace.json"
        path.write_text("previous export")
        real_dumps = json.dumps
        calls = []

        def failing_dumps(batch):
            calls.append(len(batch))
            if len(calls) == 3:
                raise OSError("disk full")
            return real_dumps(batch)

        monkeypatch.setattr(trace, "_PERFETTO_BATCH", 16)
        monkeypatch.setattr(json, "dumps", failing_dumps)
        with pytest.raises(OSError, match="disk full"):
            tracer.write_perfetto(str(path))
        assert path.read_text() == "previous export"
        assert os.listdir(str(tmp_path)) == ["trace.json"]

    def test_export_memory_budget(self, tmp_path):
        """The streamed export holds one batch, never the document:
        ~2 MiB peak on this trace, against ~20 MiB for building the
        full event list and encoding it in one piece."""
        spec = ScenarioSpec(topology="paper", load=0.45, packets=200)
        platform = build_platform(spec.to_platform_config())
        tracer = FlitTracer()
        platform.network.attach_tracer(tracer)
        EmulationEngine(platform).run()
        platform.network.detach_tracer()
        tracer.close()
        tracemalloc.start()
        try:
            tracer.write_perfetto(str(tmp_path / "trace.json"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"
