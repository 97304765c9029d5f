"""Shared helpers for the benchmark harness.

Every bench regenerates one table or figure of the paper.  The
rendered artefact is printed to the terminal *and* written to
``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can reference a
stable file regardless of pytest's output capturing.  A figure's
scenarios are a sweep document, ``benchmarks/sweeps/<name>.json``,
which ``repro batch`` runs unedited.
"""

from __future__ import annotations

import os
import sys

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
SWEEPS_DIR = os.path.join(os.path.dirname(__file__), "sweeps")


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "perf: performance smoke benches (excluded from tier-1; run"
        " explicitly or with -m perf)",
    )


def emit(name: str, text: str) -> None:
    """Print an artefact and persist it under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    # Bypass pytest capture so the artefact is visible live with -s
    # and still lands in the results file either way.
    sys.stderr.write(f"\n[{name}] -> {path}\n{text}\n")


def figure_specs(name: str):
    """The scenarios of figure ``name``'s sweep document
    (``benchmarks/sweeps/<name>.json``), in document order."""
    from repro.experiments import Sweep

    return Sweep.from_file(os.path.join(SWEEPS_DIR, f"{name}.json"))


def figure_results(name: str):
    """Run figure ``name``'s sweep document through the experiment
    runner; its results in document order, every run completed."""
    from repro.experiments import SweepRunner

    report = SweepRunner().run(figure_specs(name))
    assert report.ok, report.failures
    assert all(result.metrics["completed"] for result in report)
    return report


def usable_cores() -> int:
    """CPUs this process may run on (affinity-aware on Linux)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1

