"""Declarative experiments: scenario specs, sweeps, caching, reports.

The paper builds an FPGA platform so that NoC design-space exploration
runs at emulation speed instead of simulation speed; this package is
the layer that *spends* that speed.  It turns "run many
configurations" from hand-rolled loops into data:

* :mod:`~repro.experiments.spec` — :class:`ScenarioSpec`, a frozen,
  validated, content-hashed description of one emulation, and
  :class:`Sweep` expanders (``grid``/``zip``/``from_file``).
* :mod:`~repro.experiments.runner` — :class:`SweepRunner`, executing
  spec lists serially or on a process pool with bit-identical results
  either way, yielding :class:`ScenarioResult` records.
* :mod:`~repro.experiments.resilience` — the crash-safety layer:
  supervised workers (crash/timeout detection, retries, quarantine),
  the resumable :class:`SweepJournal` ledger, and the
  :class:`SweepReport` a sweep always returns (completed results plus
  :class:`FailureRecord` provenance, never a mid-sweep exception).
* :mod:`~repro.experiments.cache` — :class:`ResultCache`, an on-disk
  store keyed by spec hash so re-runs only execute changed scenarios
  (corrupt entries are quarantined aside, never re-trusted).
* :mod:`~repro.experiments.report` — group-by aggregation with
  mean/min/max statistics, CSV/JSON export, table rendering.

Quickstart::

    from repro.experiments import ScenarioSpec, Sweep, SweepRunner

    specs = Sweep.grid(
        ScenarioSpec(traffic="burst", packets=500),
        load=(0.15, 0.30, 0.45),
        buffer_depth=(2, 4, 8),
    )
    results = SweepRunner(workers=4).run(specs)

The ``python -m repro batch <sweep.json>`` subcommand drives the same
machinery from the command line.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "DEFAULT_CACHE_DIR": ".cache",
    "ResultCache": ".cache",
    "FailureRecord": ".resilience",
    "SweepJournal": ".resilience",
    "SweepReport": ".resilience",
    "WorkerCrash": ".resilience",
    "aggregate": ".report",
    "render_table": ".report",
    "rows_from_results": ".report",
    "to_csv": ".report",
    "to_json": ".report",
    "ScenarioResult": ".runner",
    "SweepRunner": ".runner",
    "SweepStats": ".runner",
    "WarmResult": ".runner",
    "make_ramp_checkpoint": ".runner",
    "run_cold_point": ".runner",
    "run_scenario": ".runner",
    "run_warm_point": ".runner",
    "warm_point_key": ".runner",
    "ScenarioSpec": ".spec",
    "Sweep": ".spec",
})
