"""Flit tracer: JSONL canonical stream, attach/detach contract,
fault/abort events and the Perfetto export."""

import io
import itertools
import json

import pytest

from repro.core.engine import EmulationEngine
from repro.core.platform import build_platform
from repro.experiments.spec import ScenarioSpec
from repro.faults import FaultSchedule, link_down
from repro.telemetry import FlitTracer
from repro.telemetry.trace import _KIND_ORDER


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
