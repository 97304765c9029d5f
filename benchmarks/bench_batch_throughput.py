"""Batch-runner throughput smoke: serial vs parallel vs cached.

The experiments subsystem exists to push *scenarios per second*, the
sweep-level analogue of the paper's cycles-per-second claim (Table 2's
point is that fast single runs make design-space sweeps tractable).
This bench runs one 12-scenario grid three ways — serially, on a
4-worker process pool, and from a warm result cache — asserts all
three produce bit-identical records, and emits
``benchmarks/results/BENCH_batch.json`` with the measured
scenarios/sec so every future PR has a comparable record of sweep
throughput.

Speedup floors are asserted only where the machine can deliver them:
the parallel floor needs >= 4 usable cores (a process pool cannot beat
serial execution on a single-core container — it still must produce
identical results there, which *is* asserted).  The cache floor holds
everywhere: serving 12 records from disk must be at least 5x faster
than emulating them.
"""

import json
import os
import time

import pytest

from benchmarks.conftest import RESULTS_DIR, emit, format_table, usable_cores
from repro.experiments import (
    ResultCache,
    ScenarioSpec,
    Sweep,
    SweepRunner,
)

pytestmark = pytest.mark.perf

#: 12 scenarios: saturation-region uniform traffic on the paper
#: platform, load x depth.  Uniform keeps per-scenario cost flat so
#: the pool's load balance doesn't dominate the measurement.
GRID = dict(
    load=(0.15, 0.30, 0.45, 0.60),
    buffer_depth=(2, 4, 8),
)
BASE = ScenarioSpec(traffic="uniform", packets=900, seed=11)

PARALLEL_WORKERS = 4
#: Conservative floors (see module docstring).
PARALLEL_FLOOR = 2.0
CACHE_FLOOR = 5.0


def _measure(runner: SweepRunner, specs):
    started = time.perf_counter()
    results = runner.run(specs)
    wall = time.perf_counter() - started
    return [r.record() for r in results], wall


def test_batch_throughput_smoke(tmp_path):
    specs = Sweep.grid(BASE, **GRID)
    n = len(specs)
    assert n == 12

    serial_records, serial_wall = _measure(SweepRunner(workers=1), specs)
    parallel_records, parallel_wall = _measure(
        SweepRunner(workers=PARALLEL_WORKERS), specs
    )
    cache = ResultCache(str(tmp_path / "cache"))
    _measure(SweepRunner(workers=1, cache=cache), specs)  # warm
    cached_runner = SweepRunner(workers=1, cache=cache)
    cached_records, cached_wall = _measure(cached_runner, specs)

    # Correctness first: all three paths must be bit-identical.
    assert parallel_records == serial_records
    assert cached_records == serial_records
    assert cached_runner.last_stats.executed == 0
    assert cached_runner.last_stats.cached == n

    cores = usable_cores()
    report = {
        "scenarios": n,
        "usable_cores": cores,
        "serial_sps": round(n / serial_wall, 2),
        "parallel_sps": round(n / parallel_wall, 2),
        "cached_sps": round(n / cached_wall, 2),
        "parallel_speedup": round(serial_wall / parallel_wall, 2),
        "cache_speedup": round(serial_wall / cached_wall, 2),
        "parallel_workers": PARALLEL_WORKERS,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(
        os.path.join(RESULTS_DIR, "BENCH_batch.json"),
        "w",
        encoding="utf-8",
    ) as fh:
        json.dump(report, fh, indent=2)
    emit(
        "batch_throughput",
        format_table(
            ["path", "scenarios/s", "speedup vs serial"],
            [
                ("serial", report["serial_sps"], "1.00x"),
                (
                    f"parallel (x{PARALLEL_WORKERS})",
                    report["parallel_sps"],
                    f"{report['parallel_speedup']:.2f}x",
                ),
                (
                    "cached",
                    report["cached_sps"],
                    f"{report['cache_speedup']:.2f}x",
                ),
            ],
        ),
    )

    assert report["cache_speedup"] >= CACHE_FLOOR, (
        f"warm cache only {report['cache_speedup']}x faster than"
        f" executing (floor {CACHE_FLOOR}x)"
    )
    if cores >= PARALLEL_WORKERS:
        assert report["parallel_speedup"] >= PARALLEL_FLOOR, (
            f"{PARALLEL_WORKERS} workers on {cores} cores only"
            f" {report['parallel_speedup']}x faster than serial"
            f" (floor {PARALLEL_FLOOR}x)"
        )
