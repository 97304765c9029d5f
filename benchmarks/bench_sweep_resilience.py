"""Sweep-resilience bench: supervision overhead and journal resume.

The supervised worker pool replaced the bare ``multiprocessing.Pool``
under every parallel sweep, so its price must stay measured: this
bench runs one 12-scenario grid on a plain pool (``pool.imap``, the
pre-supervision execution path, reproduced here) and on the
supervised pool, asserts bit-identical records, and enforces a <= 5%
overhead ceiling on healthy sweeps.  It then prices what the crash
machinery buys: resuming a half-completed journaled sweep must
execute exactly the unfinished half and beat re-running the whole
sweep from scratch.

``benchmarks/results/BENCH_resilience.json`` carries the measurements;
its ``deterministic`` sub-record (record hash, executed counts) is
drift-guarded — the bench fails *before overwriting* if supervised
execution ever changes the bits a sweep produces.

Wall-clock floors are asserted only where the machine can deliver
them (>= 4 usable cores); determinism and the executed-count
accounting are asserted everywhere.
"""

import hashlib
import json
import os
import time

import pytest

from benchmarks.conftest import (
    RESULTS_DIR,
    check_no_drift,
    emit,
    format_table,
    usable_cores,
)
from repro.experiments import (
    ResultCache,
    ScenarioSpec,
    Sweep,
    SweepJournal,
    SweepRunner,
)
from repro.experiments.runner import run_scenario
from repro.util import canonical_json_bytes

pytestmark = pytest.mark.perf

GRID = dict(
    load=(0.15, 0.30, 0.45, 0.60),
    buffer_depth=(2, 4, 8),
)
BASE = ScenarioSpec(traffic="uniform", packets=900, seed=11)

WORKERS = 4
#: Supervision must cost <= 5% wall-clock on a healthy sweep.
OVERHEAD_CEILING = 1.05
#: Resuming a half-done sweep must beat a cold sweep by >= 1.4x
#: (half the work plus journal/cache bookkeeping).
RESUME_FLOOR = 1.4


def _run_record(spec_dict):
    """Bare-pool task: specs travel as plain dicts (picklable)."""
    result = run_scenario(ScenarioSpec.from_dict(spec_dict))
    return result.record(), result.wall_seconds


def _bare_pool(specs):
    """The pre-supervision execution path: bare ``pool.imap``."""
    import multiprocessing

    payloads = [spec.to_dict() for spec in specs]
    started = time.perf_counter()
    with multiprocessing.Pool(processes=WORKERS) as pool:
        outcomes = list(pool.imap(_run_record, payloads, chunksize=1))
    wall = time.perf_counter() - started
    return [record for record, _ in outcomes], wall


def _supervised(specs):
    runner = SweepRunner(workers=WORKERS)
    started = time.perf_counter()
    report = runner.run(specs)
    wall = time.perf_counter() - started
    assert report.ok
    return [r.record() for r in report], wall


def _sweep_hash(records):
    return hashlib.sha256(
        canonical_json_bytes(records)
    ).hexdigest()[:16]


def test_sweep_resilience_bench(tmp_path):
    specs = Sweep.grid(BASE, **GRID)
    n = len(specs)
    assert n == 12

    # --- supervision overhead vs the bare pool -----------------------
    bare_records, bare_wall = _bare_pool(specs)
    supervised_records, supervised_wall = _supervised(specs)
    assert supervised_records == bare_records
    overhead = supervised_wall / bare_wall

    # --- journal resume on a half-completed sweep --------------------
    cache = ResultCache(str(tmp_path / "cache"))
    journal = SweepJournal.for_sweep(cache.root, specs)
    half = specs[: n // 2]
    SweepRunner(
        workers=WORKERS, cache=cache, journal=journal
    ).run(half)  # the "crashed" first run finished half the sweep

    resumed = SweepRunner(
        workers=WORKERS, cache=cache, journal=journal, resume=True
    )
    started = time.perf_counter()
    resumed_report = resumed.run(specs)
    resume_wall = time.perf_counter() - started
    assert resumed_report.ok
    assert resumed.last_stats.cached == n // 2
    assert resumed.last_stats.executed == n - n // 2
    resumed_records = [r.record() for r in resumed_report]
    assert resumed_records == bare_records
    cold_wall = supervised_wall  # same sweep, no cache/journal
    resume_speedup = cold_wall / resume_wall

    cores = usable_cores()
    report = {
        "deterministic": {
            "scenarios": n,
            "sweep_hash": _sweep_hash(bare_records),
            "resumed_executed": resumed.last_stats.executed,
            "resumed_cached": resumed.last_stats.cached,
        },
        "usable_cores": cores,
        "workers": WORKERS,
        "bare_pool_sps": round(n / bare_wall, 2),
        "supervised_sps": round(n / supervised_wall, 2),
        "supervision_overhead": round(overhead, 3),
        "resume_sps": round(n / resume_wall, 2),
        "resume_speedup": round(resume_speedup, 2),
    }

    baseline_path = os.path.join(RESULTS_DIR, "BENCH_resilience.json")
    check_no_drift(report, baseline_path, "resilience")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(baseline_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)

    emit(
        "sweep_resilience",
        format_table(
            ["path", "scenarios/s", "note"],
            [
                ("bare pool", report["bare_pool_sps"], "1.00x"),
                (
                    "supervised",
                    report["supervised_sps"],
                    f"{report['supervision_overhead']:.3f}x wall",
                ),
                (
                    "journal resume",
                    report["resume_sps"],
                    f"{report['resume_speedup']:.2f}x vs cold",
                ),
            ],
        ),
    )

    if cores >= WORKERS:
        assert overhead <= OVERHEAD_CEILING, (
            f"supervised pool costs {overhead:.3f}x the bare pool"
            f" wall-clock (ceiling {OVERHEAD_CEILING}x)"
        )
        assert resume_speedup >= RESUME_FLOOR, (
            f"journal resume of a half-done sweep only"
            f" {resume_speedup:.2f}x faster than cold"
            f" (floor {RESUME_FLOOR}x)"
        )
