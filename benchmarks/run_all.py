"""Run every perf-marked bench in one pytest session.

Each perf-marked bench regenerates a table or figure of the paper, or
(``bench_ratios.py``) asserts the emulator's paired speed ratios, and
writes its rendered artefact to ``benchmarks/results/<name>.txt``::

    PYTHONPATH=src python benchmarks/run_all.py            # lint + run
    PYTHONPATH=src python benchmarks/run_all.py --list     # show the plan
    PYTHONPATH=src python benchmarks/run_all.py --only ratios,table2
    PYTHONPATH=src python benchmarks/run_all.py --lint-only

It is deliberately a thin wrapper over ``pytest -m perf``: the benches
keep owning their scenarios and gates; this script only selects them
and runs them in one pytest session.  Absolute speed is gated by the
end-to-end harness, ``benchmarks/e2e/run.py compare``.

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
import os
import sys
from typing import List, Optional

BENCHMARKS_DIR = os.path.dirname(os.path.abspath(__file__))


def discover_benches(only: Optional[List[str]] = None) -> List[str]:
    """Paths of the ``bench_*.py`` files, optionally filtered.

    ``only`` holds substrings matched against the bench file name
    (``ratios`` selects ``bench_ratios.py``).  Unknown filters
    raise so a typo cannot silently skip a bench.
    """
    paths = sorted(glob.glob(os.path.join(BENCHMARKS_DIR, "bench_*.py")))
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


def lint_gate() -> int:
    """``repro lint src/repro --format json``: 0 clean, 1 findings."""
    src_root = os.path.join(os.path.dirname(BENCHMARKS_DIR), "src")
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
            "run every perf-marked bench in one pytest session"
        )
    )
    parser.add_argument(
        "--only",
        default=None,
        help=(
            "comma-separated bench name filters, e.g."
            " 'ratios,table2' (default: all bench_*.py files)"
        ),
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the selected bench files and exit",
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
    if not args.skip_lint:
        lint_exit = lint_gate()
        if lint_exit:
            print(
                "static-analysis gate failed; fix the findings (or"
                " re-run with --skip-lint) before benching",
                file=sys.stderr,
            )
            return lint_exit

    # The benches import ``benchmarks.conftest``; running this file
    # as a script puts benchmarks/ (not the repo root) on sys.path, so
    # add the root the way ``python -m pytest`` from the repo root
    # would.
    root = os.path.dirname(BENCHMARKS_DIR)
    if root not in sys.path:
        sys.path.insert(0, root)
    import shlex

    import pytest

    # User-supplied options come after this script's, so e.g. a custom
    # -m expression overrides the default "perf".
    extra = shlex.split(args.pytest_args) if args.pytest_args else []
    return int(pytest.main(["-m", "perf", "-s", *extra, *benches]))


if __name__ == "__main__":
    raise SystemExit(main())
