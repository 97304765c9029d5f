"""Windowed metrics: boundary differencing, zero-delta windows,
fast-forward landing, determinism and rendering."""

import pytest

from repro.core.engine import EmulationEngine
from repro.core.errors import ConfigError
from repro.core.platform import build_platform
from repro.experiments.spec import ScenarioSpec
from repro.telemetry import (
    WindowedMetrics,
    format_window_table,
)


def fresh_platform(spec):
    return build_platform(spec.to_platform_config())


def uniform_spec(**kwargs):
    kwargs.setdefault("packets", 150)
    return ScenarioSpec(topology="paper", **kwargs)


def bursty_spec(n_bursts=6, packets_per_burst=4, gap=4000, **kwargs):
    """Long idle gaps between bursts: the idle fast-forward workload."""
    return ScenarioSpec(
        topology="paper",
        packets=None,
        traffic="trace",
        traffic_params={
            "n_bursts": n_bursts,
            "packets_per_burst": packets_per_burst,
            "gap": gap,
        },
        **kwargs,
    )


def run_with_windows(spec, window_cycles):
    platform = fresh_platform(spec)
    telemetry = WindowedMetrics(platform, window_cycles)
    result = EmulationEngine(platform, telemetry=telemetry).run()
    return platform, result


class TestValidation:
    @pytest.mark.parametrize("bad", [0, -1, 2.5, "100", None, True])
    def test_rejects_bad_window_cycles(self, bad):
        platform = fresh_platform(uniform_spec())
        with pytest.raises(ConfigError):
            WindowedMetrics(platform, bad)

    def test_begin_is_idempotent(self):
        platform = fresh_platform(uniform_spec())
        telemetry = WindowedMetrics(platform, 100)
        first = telemetry.begin(0)
        assert first == 100
        assert telemetry.begin(37) == first  # second begin: no restart


class TestSeries:
    def test_conservation_and_contiguity(self):
        platform, result = run_with_windows(uniform_spec(), 200)
        windows = result.windows
        assert windows, "bounded run must produce windows"
        # Deltas over all windows sum to the platform totals.
        assert sum(w.injected_flits for w in windows) == sum(
            ni.injected_flits for ni in platform.network.nis
        )
        assert sum(w.ejected_flits for w in windows) == sum(
            rx.received_flits for rx in platform.network.rx
        )
        assert sum(w.ejected_packets for w in windows) == (
            platform.packets_received
        )
        # Windows tile [0, cycles) without gaps or overlaps.
        assert windows[0].start == 0
        assert windows[-1].end == result.cycles
        for i, w in enumerate(windows):
            assert w.index == i
            assert w.end > w.start
            if i:
                assert w.start == windows[i - 1].end
        # Per-switch tuples sum to the network-wide fields.
        for w in windows:
            assert sum(w.switch_forwarded) == w.forwarded_flits
            assert sum(w.switch_blocked) == w.blocked_flit_cycles
            assert sum(w.switch_credit_stalls) == w.credit_stall_cycles

    def test_final_window_is_partial_when_run_ends_midwindow(self):
        platform, result = run_with_windows(uniform_spec(), 10_000)
        # One giant window: the run is shorter than the window length,
        # so finish() must emit the partial [0, cycles) record.
        assert len(result.windows) == 1
        assert result.windows[0].cycles == result.cycles

    def test_window_cycles_one(self):
        platform, result = run_with_windows(
            uniform_spec(packets=20), 1
        )
        windows = result.windows
        assert len(windows) == result.cycles
        assert all(w.cycles == 1 for w in windows)

    def test_idle_gaps_emit_zero_delta_windows(self):
        platform, result = run_with_windows(bursty_spec(), 300)
        windows = result.windows
        zero = [
            w
            for w in windows
            if w.injected_flits == 0
            and w.ejected_flits == 0
            and w.forwarded_flits == 0
        ]
        # The 4000-cycle gaps dwarf the 300-cycle windows: most of the
        # series must be zero-delta records emitted in O(1) from the
        # fast-forward landing, not per-cycle execution.
        assert len(zero) > len(windows) // 2
        for w in zero:
            assert w.in_flight_flits == 0
            assert w.parked_inputs == 0
            assert w.switch_buffered == (0,) * 6
            assert w.link_flits == {}
        # Conservation still holds across the jumps.
        assert sum(w.injected_flits for w in windows) == sum(
            ni.injected_flits for ni in platform.network.nis
        )

    def test_series_is_deterministic(self):
        _, first = run_with_windows(bursty_spec(), 300)
        _, second = run_with_windows(bursty_spec(), 300)
        assert first.windows == second.windows

    def test_parking_reported_at_saturation(self):
        _, result = run_with_windows(
            uniform_spec(load=0.9, packets=400), 100
        )
        assert any(w.parked_inputs > 0 for w in result.windows)
        assert any(w.blocked_flit_cycles > 0 for w in result.windows)


class TestFFLanding:
    def make(self, window_cycles=100):
        platform = fresh_platform(uniform_spec())
        telemetry = WindowedMetrics(platform, window_cycles)
        telemetry.begin(0)
        return telemetry

    def test_target_inside_window_unchanged(self):
        telemetry = self.make()
        assert telemetry.ff_landing(40) == 40
        assert telemetry.ff_landing(100) == 100  # exact boundary

    def test_target_past_boundary_lands_on_boundary(self):
        telemetry = self.make()
        assert telemetry.ff_landing(150) == 100
        assert telemetry.ff_landing(199) == 100
        assert telemetry.ff_landing(200) == 200
        assert telemetry.ff_landing(1234) == 1200

    def test_multi_window_jump_emits_skipped_windows(self):
        telemetry = self.make()
        # Simulate a quiescent jump 0 -> 500: advance at the landing.
        boundary = telemetry.ff_landing(512)
        assert boundary == 500
        assert telemetry.advance(boundary) == 600
        assert [
            (w.start, w.end) for w in telemetry.records
        ] == [(0, 100), (100, 200), (200, 300), (300, 400), (400, 500)]


class TestRecord:
    def test_to_dict_round_trip_shape(self):
        _, result = run_with_windows(uniform_spec(), 200)
        d = result.windows[0].to_dict()
        assert d["index"] == 0
        assert d["end"] - d["start"] == result.windows[0].cycles
        assert isinstance(d["switch_forwarded"], list)
        assert list(d["link_flits"]) == sorted(d["link_flits"])
        # Deterministic record: no wall-clock anywhere.
        assert not any("wall" in k or "seconds" in k for k in d)

class TestFormatting:
    def test_table_lists_all_rows_when_short(self):
        _, result = run_with_windows(uniform_spec(), 500)
        table = format_window_table(list(result.windows))
        lines = table.splitlines()
        assert lines[0].split() == [
            "win", "cycles", "inj", "ej", "blocked", "credit",
            "parked", "in-flight",
        ]
        assert len(lines) == 1 + len(result.windows)
        assert "..." not in table

    def test_table_elides_long_series(self):
        _, result = run_with_windows(bursty_spec(), 100)
        records = list(result.windows)
        assert len(records) > 12
        table = format_window_table(records)
        lines = table.splitlines()
        assert len(lines) == 1 + 12 + 1  # header + rows + ellipsis
        assert any(line.strip().startswith("...") for line in lines)
        assert f"{records[-1].start}-{records[-1].end}" in lines[-1]
