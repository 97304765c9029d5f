"""Unit tests for traces, replay and the synthetic producers."""

import io

import pytest

from repro.traffic.trace import (
    Trace,
    TraceRecord,
    TraceTraffic,
    load_trace,
    save_trace,
    synthetic_burst_trace,
    synthetic_mpeg_trace,
)


class TestTraceRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceRecord(cycle=-1, dst=0, length=1)
        with pytest.raises(ValueError):
            TraceRecord(cycle=0, dst=0, length=0)


class TestTrace:
    def test_sorted_by_cycle(self):
        t = Trace(
            [
                TraceRecord(5, 0, 1),
                TraceRecord(1, 0, 1),
                TraceRecord(3, 0, 1),
            ]
        )
        assert [r.cycle for r in t] == [1, 3, 5]

    def test_aggregates(self):
        t = Trace(
            [TraceRecord(0, 0, 4), TraceRecord(9, 0, 6)], name="x"
        )
        assert len(t) == 2
        assert t.total_flits == 10
        assert t.span_cycles == 10
        assert t.offered_load == pytest.approx(1.0)

    def test_empty_trace(self):
        t = Trace([])
        assert t.span_cycles == 0
        assert t.offered_load == 0.0


class TestReplay:
    def test_causal_replay(self):
        t = Trace([TraceRecord(3, 9, 2), TraceRecord(6, 9, 2)])
        m = TraceTraffic(t)
        assert m.poll(0) is None
        assert m.poll(2) is None
        assert m.poll(3) == (2, 9, None)
        assert m.poll(4) is None
        assert m.poll(6) == (2, 9, None)
        assert m.exhausted

    def test_same_cycle_records_slip(self):
        t = Trace([TraceRecord(0, 1, 1), TraceRecord(0, 2, 1)])
        m = TraceTraffic(t)
        assert m.poll(0) == (1, 1, None)
        assert m.poll(1) == (1, 2, None)  # slipped by one cycle

    def test_reset_rewinds(self):
        t = Trace([TraceRecord(0, 1, 1)])
        m = TraceTraffic(t)
        m.poll(0)
        assert m.exhausted
        m.reset()
        assert not m.exhausted
        assert m.poll(0) == (1, 1, None)


class TestSerialisation:
    def test_round_trip(self):
        original = synthetic_burst_trace(
            n_bursts=4,
            packets_per_burst=3,
            flits_per_packet=2,
            gap=5,
            dst=6,
        )
        buffer = io.StringIO()
        save_trace(original, buffer)
        buffer.seek(0)
        restored = load_trace(buffer)
        assert restored.name == original.name
        assert len(restored) == len(original)
        for a, b in zip(original, restored):
            assert (a.cycle, a.dst, a.length, a.burst_id) == (
                b.cycle,
                b.dst,
                b.length,
                b.burst_id,
            )

    def test_round_trip_via_file(self, tmp_path):
        trace = Trace([TraceRecord(0, 1, 2, None)], name="disk")
        path = str(tmp_path / "t.trace")
        save_trace(trace, path)
        restored = load_trace(path)
        assert restored.name == "disk"
        assert restored[0].burst_id is None

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            load_trace(io.StringIO("1 2 3\n"))


class TestSyntheticBurstTrace:
    def test_structure(self):
        t = synthetic_burst_trace(
            n_bursts=2,
            packets_per_burst=3,
            flits_per_packet=4,
            gap=10,
            dst=5,
        )
        assert [r.burst_id for r in t] == [0, 0, 0, 1, 1, 1]
        # Back-to-back packets inside a burst, then the gap.
        cycles = [r.cycle for r in t]
        assert cycles == [0, 4, 8, 22, 26, 30]

    def test_multi_destination_per_burst(self):
        t = synthetic_burst_trace(
            n_bursts=50,
            packets_per_burst=2,
            flits_per_packet=1,
            gap=0,
            dst=[3, 4],
            seed=5,
        )
        by_burst = {}
        for r in t:
            by_burst.setdefault(r.burst_id, set()).add(r.dst)
        # Each burst sticks to one destination...
        assert all(len(d) == 1 for d in by_burst.values())
        # ...but both destinations appear over the trace.
        assert {d.pop() for d in by_burst.values()} == {3, 4}

    def test_validation(self):
        with pytest.raises(ValueError):
            synthetic_burst_trace(0, 1, 1, 0, dst=0)
        with pytest.raises(ValueError):
            synthetic_burst_trace(1, 0, 1, 0, dst=0)
        with pytest.raises(ValueError):
            synthetic_burst_trace(1, 1, 1, -1, dst=0)


class TestSyntheticMpegTrace:
    def test_frame_periodicity(self):
        t = synthetic_mpeg_trace(
            n_frames=6, dst=2, frame_interval=100, size_jitter=0.0
        )
        frame_starts = sorted(
            {
                min(r.cycle for r in t if r.burst_id == f)
                for f in range(6)
            }
        )
        assert frame_starts == [0, 100, 200, 300, 400, 500]

    def test_i_frames_are_largest(self):
        t = synthetic_mpeg_trace(n_frames=12, dst=2, size_jitter=0.0)
        sizes = {}
        for r in t:
            sizes[r.burst_id] = sizes.get(r.burst_id, 0) + 1
        # Frame 0 is the I frame of the GOP: strictly largest.
        assert sizes[0] == max(sizes.values())
        assert sizes[0] > sizes[1]  # B frame much smaller

    def test_jitter_varies_sizes(self):
        t = synthetic_mpeg_trace(
            n_frames=24, dst=2, size_jitter=0.5, seed=3
        )
        sizes = {}
        for r in t:
            sizes[r.burst_id] = sizes.get(r.burst_id, 0) + 1
        b_sizes = {sizes[f] for f in (1, 2, 4, 5, 7, 8, 10, 11)}
        assert len(b_sizes) > 1

    def test_validation(self):
        with pytest.raises(ValueError):
            synthetic_mpeg_trace(0, dst=1)
        with pytest.raises(ValueError):
            synthetic_mpeg_trace(1, dst=1, size_jitter=1.0)
