"""Runner tests: metrics, ordering, and serial/parallel determinism."""

import gc
import json
import weakref

import pytest

from repro.core.errors import ConfigError
from repro.experiments import (
    ResultCache,
    ScenarioSpec,
    Sweep,
    SweepRunner,
    run_scenario,
)
from repro.experiments import runner as runner_mod

#: A small, fast sweep: 6 scenarios across traffic models and depths.
SPECS = Sweep.grid(
    ScenarioSpec(packets=40, seed=3),
    traffic=("uniform", "burst", "poisson"),
    buffer_depth=(2, 4),
)


def records(results):
    return [r.record() for r in results]


class TestRunScenario:
    def test_metrics_shape(self):
        result = run_scenario(ScenarioSpec(traffic="uniform", packets=30))
        m = result.metrics
        assert m["completed"] is True
        assert m["packets_received"] == 4 * 30
        assert m["cycles"] > 0
        assert m["mean_latency"] > 0
        assert m["p95_latency"] >= m["p50_latency"]
        assert m["min_latency"] <= m["mean_latency"] <= m["max_latency"]
        assert 0.0 <= m["congestion_rate"] <= 1.0
        assert m["accepted_flits_per_cycle"] > 0
        assert result.wall_seconds > 0
        assert not result.cached

    def test_pure_function_of_spec(self):
        spec = ScenarioSpec(traffic="burst", packets=30, seed=9)
        assert (
            run_scenario(spec).record() == run_scenario(spec).record()
        )

    def test_record_round_trip(self):
        from repro.experiments.runner import ScenarioResult

        result = run_scenario(ScenarioSpec(packets=20))
        clone = ScenarioResult.from_record(result.record())
        assert clone.spec == result.spec
        assert dict(clone.metrics) == dict(result.metrics)
        assert clone.record() == result.record()

    def test_record_excludes_wall_clock(self):
        result = run_scenario(ScenarioSpec(packets=20))
        blob = json.dumps(result.record())
        assert "wall" not in blob


class TestSweepRunnerSerial:
    def test_results_in_spec_order(self):
        results = SweepRunner().run(SPECS)
        assert [r.spec for r in results] == list(SPECS)

    def test_duplicates_share_results(self):
        spec = ScenarioSpec(packets=20)
        runner = SweepRunner()
        results = runner.run([spec, spec, spec])
        assert runner.last_stats.executed == 1
        assert records(results)[0] == records(results)[1] == records(results)[2]

    def test_stats_accounting(self):
        runner = SweepRunner()
        runner.run(SPECS)
        stats = runner.last_stats
        assert stats.scenarios == len(SPECS)
        assert stats.executed == len(SPECS)
        assert stats.cached == 0
        assert stats.wall_seconds > 0
        assert stats.scenarios_per_second > 0

    def test_progress_callback(self):
        seen = []
        runner = SweepRunner(
            progress=lambda done, total, r: seen.append((done, total))
        )
        runner.run(SPECS[:2])
        assert seen == [(1, 2), (2, 2)]

    def test_each_platform_is_freed_before_the_next_build(
        self, monkeypatch
    ):
        built, alive_at_build, drives = [], [], []
        real_build, real_drive = runner_mod.build_engine, runner_mod.drive

        def tracking_build(spec, *args, **kwargs):
            alive_at_build.append([ref() is not None for ref in built])
            platform, engine = real_build(spec, *args, **kwargs)
            built.append(weakref.ref(platform))
            return platform, engine

        def failing_first_drive(engine, *args, **kwargs):
            drives.append(None)
            if len(drives) == 1:
                raise RuntimeError("first attempt fails")
            return real_drive(engine, *args, **kwargs)

        monkeypatch.setattr(runner_mod, "build_engine", tracking_build)
        monkeypatch.setattr(runner_mod, "drive", failing_first_drive)
        runner = SweepRunner(retries=1)
        assert len(runner.run(SPECS[:2])) == 2
        assert runner.last_stats.retried == 1
        # A failed attempt's platform is freed too.
        assert alive_at_build == [[], [False], [False, False]]

    def test_heap_is_unfrozen_after_the_sweep(self):
        SweepRunner().run(SPECS[:2])
        assert gc.get_freeze_count() == 0

    def test_non_spec_rejected(self):
        with pytest.raises(ConfigError, match="ScenarioSpec"):
            SweepRunner().run([{"traffic": "uniform"}])

    def test_bad_workers_rejected(self):
        with pytest.raises(ConfigError, match="workers"):
            SweepRunner(workers=0)


class TestDeterminism:
    """Satellite: serial vs parallel vs cached are bit-identical."""

    def test_serial_vs_parallel_identical(self):
        serial = SweepRunner(workers=1).run(SPECS)
        parallel = SweepRunner(workers=4).run(SPECS)
        assert records(serial) == records(parallel)

    def test_parallel_records_canonical_bytes(self):
        serial = SweepRunner(workers=1).run(SPECS)
        parallel = SweepRunner(workers=2).run(SPECS)
        for a, b in zip(serial, parallel):
            assert json.dumps(a.record(), sort_keys=True).encode() == (
                json.dumps(b.record(), sort_keys=True).encode()
            )

    def test_cached_identical_and_byte_stable(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        first = SweepRunner(cache=cache).run(SPECS)
        stored = [cache.get_bytes(s.key) for s in SPECS]
        runner = SweepRunner(cache=cache)
        second = runner.run(SPECS)
        assert runner.last_stats.executed == 0
        assert runner.last_stats.cached == len(SPECS)
        assert all(r.cached for r in second)
        assert records(first) == records(second)
        # The on-disk bytes did not change across the second run.
        assert [cache.get_bytes(s.key) for s in SPECS] == stored

    def test_partial_cache_runs_only_misses(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        SweepRunner(cache=cache).run(SPECS[:3])
        runner = SweepRunner(cache=cache)
        results = runner.run(SPECS)
        assert runner.last_stats.cached == 3
        assert runner.last_stats.executed == len(SPECS) - 3
        assert [r.cached for r in results] == [True] * 3 + [
            False
        ] * (len(SPECS) - 3)

    def test_parallel_with_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        parallel = SweepRunner(workers=3, cache=cache).run(SPECS)
        serial = SweepRunner(workers=1).run(SPECS)
        assert records(parallel) == records(serial)
        assert len(cache) == len(SPECS)


class TestLiveProgress:
    def test_progress_fires_during_execution(self):
        # The callback must fire as scenarios retire, not in one burst
        # after the sweep: each tick sees only the work done so far.
        executed_at_tick = []
        runner = SweepRunner(
            progress=lambda done, total, r: executed_at_tick.append(
                (done, r.cached)
            )
        )
        runner.run(SPECS[:3])
        assert executed_at_tick == [(1, False), (2, False), (3, False)]

    def test_progress_cache_hits_first(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        SweepRunner(cache=cache).run(SPECS[:2])
        order = []
        runner = SweepRunner(
            cache=cache,
            progress=lambda done, total, r: order.append(r.cached),
        )
        runner.run(SPECS[:4])
        assert order == [True, True, False, False]

    def test_parallel_cache_persists_per_completion(self, tmp_path):
        # imap + per-completion put: after a parallel run every record
        # is on disk (the interrupted-sweep resumability contract).
        cache = ResultCache(str(tmp_path))
        SweepRunner(workers=2, cache=cache).run(SPECS[:4])
        assert len(cache) == 4


class TestWindowSeries:
    def test_run_scenario_embeds_window_series(self):
        spec = ScenarioSpec(packets=40, telemetry_windows=200)
        result = run_scenario(spec)
        series = result.metrics["window_series"]
        assert series and series[0]["start"] == 0
        assert series[-1]["end"] == result.metrics["cycles"]
        assert sum(w["ejected_packets"] for w in series) == (
            result.metrics["packets_received"]
        )

    def test_window_series_deterministic_and_cacheable(self, tmp_path):
        spec = ScenarioSpec(packets=40, telemetry_windows=200)
        cache = ResultCache(str(tmp_path))
        first = SweepRunner(cache=cache).run([spec])[0]
        second = SweepRunner(cache=cache).run([spec])[0]
        assert second.cached
        assert first.metrics == second.metrics
        assert json.dumps(first.record(), sort_keys=True) == (
            json.dumps(second.record(), sort_keys=True)
        )

    def test_no_series_without_field(self):
        result = run_scenario(ScenarioSpec(packets=40))
        assert "window_series" not in result.metrics
