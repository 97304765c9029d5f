"""Run every perf-marked bench and collect the ``BENCH_*.json`` records.

The performance trajectory of the repo lives in the ``BENCH_*.json``
regression records under ``benchmarks/results/``; each perf-marked
bench refreshes its own record (and fails before overwriting it on a
regression).  This driver makes the whole trajectory reproducible with
a single command::

    PYTHONPATH=src python benchmarks/run_all.py            # lint + run + collect
    PYTHONPATH=src python benchmarks/run_all.py --list     # show the plan
    PYTHONPATH=src python benchmarks/run_all.py --only kernel,batch
    PYTHONPATH=src python benchmarks/run_all.py --collect-only
    PYTHONPATH=src python benchmarks/run_all.py --lint-only

It is deliberately a thin wrapper over ``pytest -m perf``: the benches
keep owning their scenarios, floors and guards; this driver only
selects them, runs them in one pytest session and prints the combined
record summary afterwards.

Before any bench runs, the driver runs the static analyzer (``repro
lint src/repro --format json``, see ``repro.analysis``) and aborts on
unsuppressed findings — a perf PR that breaks a determinism, parking
or settle-on-read invariant fails here in seconds instead of after
the full bench session.  ``--skip-lint`` bypasses the gate;
``--lint-only`` runs just it and prints the JSON report.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RESULTS_DIR = os.path.join(BENCH_DIR, "results")


def discover_benches(only: Optional[List[str]] = None) -> List[str]:
    """Paths of the ``bench_*.py`` files, optionally filtered.

    ``only`` holds substrings matched against the bench file name
    (``kernel`` selects ``bench_kernel_speed.py``).  Unknown filters
    raise so a typo cannot silently skip a bench.
    """
    paths = sorted(glob.glob(os.path.join(BENCH_DIR, "bench_*.py")))
    if only is None:
        return paths
    selected: List[str] = []
    for token in only:
        matches = [
            p for p in paths if token in os.path.basename(p)
        ]
        if not matches:
            known = ", ".join(os.path.basename(p) for p in paths)
            raise SystemExit(
                f"--only {token!r} matches no bench file (have: {known})"
            )
        for match in matches:
            if match not in selected:
                selected.append(match)
    return selected


def collect_records() -> Dict[str, dict]:
    """Load every ``BENCH_*.json`` record under benchmarks/results/."""
    records: Dict[str, dict] = {}
    for path in sorted(
        glob.glob(os.path.join(RESULTS_DIR, "BENCH_*.json"))
    ):
        name = os.path.basename(path)
        try:
            with open(path, encoding="utf-8") as fh:
                records[name] = json.load(fh)
        except (OSError, ValueError) as exc:
            records[name] = {"error": str(exc)}
    return records


def render_summary(records: Dict[str, dict]) -> str:
    """One flat line per (record, scenario, headline metric)."""
    lines = ["collected perf records:"]
    if not records:
        lines.append("  (none found — did the benches run?)")
    for name, record in records.items():
        if "error" in record:
            lines.append(f"  {name}: unreadable ({record['error']})")
            continue
        lines.append(f"  {name}:")
        for scenario, fields in record.items():
            if not isinstance(fields, dict):
                lines.append(f"    {scenario}: {fields}")
                continue
            headline = ", ".join(
                f"{key}={value}"
                for key, value in fields.items()
                if isinstance(value, (int, float))
            )
            lines.append(f"    {scenario}: {headline}")
    return "\n".join(lines)


def lint_gate() -> int:
    """``repro lint src/repro --format json``: 0 clean, 1 findings."""
    src_root = os.path.join(os.path.dirname(BENCH_DIR), "src")
    try:
        from repro.analysis import render_json, run_lint
    except ImportError:
        sys.path.insert(0, src_root)
        from repro.analysis import render_json, run_lint

    result = run_lint([os.path.join(src_root, "repro")])
    print(render_json(result))
    return 0 if result.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "run every perf-marked bench and collect the BENCH_*.json"
            " regression records"
        )
    )
    parser.add_argument(
        "--only",
        default=None,
        help=(
            "comma-separated bench name filters, e.g."
            " 'kernel,batch' (default: all bench_*.py files)"
        ),
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the selected bench files and exit",
    )
    parser.add_argument(
        "--collect-only",
        action="store_true",
        help="skip running; just summarise the committed records",
    )
    parser.add_argument(
        "--lint-only",
        action="store_true",
        help="run only the static-analysis gate and print its JSON report",
    )
    parser.add_argument(
        "--skip-lint",
        action="store_true",
        help="skip the static-analysis gate before the benches",
    )
    parser.add_argument(
        "--pytest-args",
        default="",
        help="extra arguments forwarded to pytest (one string)",
    )
    args = parser.parse_args(argv)

    only = (
        [t.strip() for t in args.only.split(",") if t.strip()]
        if args.only
        else None
    )
    benches = discover_benches(only)
    if args.list:
        for path in benches:
            print(os.path.basename(path))
        return 0

    if args.lint_only:
        return lint_gate()
    if not args.collect_only and not args.skip_lint:
        lint_exit = lint_gate()
        if lint_exit:
            print(
                "static-analysis gate failed; fix the findings (or"
                " re-run with --skip-lint) before benching",
                file=sys.stderr,
            )
            return lint_exit

    exit_code = 0
    if not args.collect_only:
        # The benches import ``benchmarks.conftest``; running this
        # driver as a script puts benchmarks/ (not the repo root) on
        # sys.path, so add the root the way ``python -m pytest`` from
        # the repo root would.
        root = os.path.dirname(BENCH_DIR)
        if root not in sys.path:
            sys.path.insert(0, root)
        import shlex

        import pytest

        # User-supplied options come after the driver's, so e.g. a
        # custom -m expression overrides the default "perf".
        extra = shlex.split(args.pytest_args) if args.pytest_args else []
        pytest_argv = ["-m", "perf", "-s", *extra, *benches]
        exit_code = int(pytest.main(pytest_argv))

    print()
    print(render_summary(collect_records()))
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
