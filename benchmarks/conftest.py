"""Shared helpers for the benchmark harness.

Every bench regenerates one table or figure of the paper.  The
rendered artefact is printed to the terminal *and* written to
``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can reference a
stable file regardless of pytest's output capturing.
"""

from __future__ import annotations

import os
import sys

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


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


def format_table(headers, rows) -> str:
    """Minimal fixed-width table renderer for figure data."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in cells)) if cells else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(str(h).ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def usable_cores() -> int:
    """CPUs this process may run on (affinity-aware on Linux)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1

