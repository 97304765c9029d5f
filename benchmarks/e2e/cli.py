"""Command line of the end-to-end benchmark.

::

    python3 benchmarks/e2e/run.py --workload NAME [--seed S] [--seconds N]
                                  [--trace 0|1] [--out DIR]
    python3 benchmarks/e2e/run.py compare PARENT_DIR CHANGE_DIR
    python3 benchmarks/e2e/run.py summary DIR

A run prints each metric with its unit, then, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics, or with ``--trace 1`` the per-layer ones.  It also
writes its full record (every sample, the output digest, the host)
under ``--out``, which ``compare`` and ``summary`` read.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import sys
import time
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Tuple

from . import compare as comparison
from .layers import LAYER_METRICS, layer_metrics
from .measure import (
    ROOT,
    clean_scratch,
    pin_to_one_core,
    probe_setup,
    run_rep,
    source_present,
)
from .oracle import expected_digest
from .workloads import WORKLOADS, generate

#: End-to-end metrics and their units (seconds are reference seconds,
#: see measure.py).
E2E_METRICS = {
    "run_s": "s",
    "setup_s": "s",
    "cycles_per_s": "cycles/s",
    "peak_rss_mb": "MiB",
}

#: Fresh-process set-up probes per run; setup_s is their median.
SETUP_PROBES = 3
#: Repetitions an untraced run makes even when --seconds runs out.
MIN_REPS = 3
#: A run stops (exit 1, no result) if it is still going after this.
DEADLINE_S = 170


def host() -> Dict[str, Any]:
    """Fingerprint of the machine the numbers were measured on."""
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Measure one workload: the run record, and the spans of the last
    traced repetition."""
    workload = generate(name, seed)
    probes = []
    if not trace:
        probes = [probe_setup(workload) for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    started = time.perf_counter()
    while True:
        plain.append(run_rep(workload))
        if trace:
            traced.append(run_rep(workload, traced=True))
        enough = len(plain) >= (1 if trace else MIN_REPS)
        if enough and time.perf_counter() - started >= seconds:
            break

    expected = expected_digest(name, seed)
    reference = expected or plain[0].digest
    attempted = failed = 0
    for rep in plain + traced:
        attempted += rep.attempted
        failed += rep.failed if rep.digest == reference else rep.attempted

    run_s = statistics.median(r.cost_s for r in plain)
    if trace:
        layers = [layer_metrics(r.spans) for r in traced]
        values = {
            m: statistics.median(layer[m] for layer in layers)
            for m in LAYER_METRICS
            if m != "trace_overhead"
        }
        values["trace_overhead"] = (
            statistics.median(r.cost_s for r in traced) / run_s - 1.0
        )
        units = LAYER_METRICS
    else:
        values = {
            "run_s": run_s,
            "setup_s": statistics.median(p.cost_s for p in probes),
            "cycles_per_s": plain[0].cycles / run_s,
            "peak_rss_mb": statistics.median(r.rss_mb for r in plain),
        }
        units = E2E_METRICS
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "digest": plain[0].digest,
        "digest_expected": expected,
        "cycles": plain[0].cycles,
        "samples": {
            "reps": [[asdict(c) for c in r.children] for r in plain],
            "traced_reps": [[asdict(c) for c in r.children] for r in traced],
            "probes": [asdict(p) for p in probes],
        },
        "metrics": {
            m: {"value": values[m], "unit": units[m]} for m in units
        },
        "host": host(),
    }, (traced[-1].spans if traced else [])


def _report(record: Dict[str, Any]) -> None:
    samples = record["samples"]
    print(
        f"workload {record['workload']}  seed {record['seed']}"
        f"  reps {len(samples['reps'])}"
        f"  traced reps {len(samples['traced_reps'])}"
        f"  emulated cycles {record['cycles']}"
    )
    for name, metric in record["metrics"].items():
        print(f"  {name:<28} {metric['value']:>16.6g} {metric['unit']}")
    print(
        f"  {'failed_frac':<28} {record['failed_frac']:>16.6g} ratio"
        f"  ({record['failed']} of {record['attempted']} scenarios;"
        f" committed digest: {record['digest_expected'] or 'none'})"
    )


def _on_deadline(signum, frame):
    raise TimeoutError(f"benchmark still running after {DEADLINE_S} s")


def _on_terminate(signum, frame):
    # Unwind, so that every child and calibrator is killed and reaped.
    raise SystemExit(128 + signum)


def cmd_run(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument(
        "--workload",
        choices=sorted(WORKLOADS),
        help="default: all six, one after another",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=10.0, help="measuring time"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", default=str(ROOT / ".e2e_runs"), help="run records go here"
    )
    args = parser.parse_args(argv)
    if not source_present():
        print(f"error: no sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    pin_to_one_core()
    signal.signal(signal.SIGALRM, _on_deadline)
    signal.signal(signal.SIGTERM, _on_terminate)
    for name in names:
        signal.alarm(DEADLINE_S)
        try:
            record, spans = run_workload(
                name, args.seed, args.seconds, bool(args.trace)
            )
        except (TimeoutError, RuntimeError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        finally:
            signal.alarm(0)
            clean_scratch()
        stem = os.path.join(args.out, name, f"seed{args.seed}")
        os.makedirs(os.path.dirname(stem), exist_ok=True)
        suffix = ".trace.json" if args.trace else ".json"
        with open(stem + suffix, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
        if spans:
            with open(stem + ".spans.jsonl", "w", encoding="utf-8") as fh:
                for span in spans:
                    fh.write(json.dumps(span, sort_keys=True) + "\n")
        _report(record)
        keys = ("correct", "attempted", "failed", "metrics")
        print(json.dumps({k: record[k] for k in keys}))
    return 0


def cmd_compare(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("parent", help="run records of the parent commit")
    parser.add_argument("change", help="run records of the change")
    args = parser.parse_args(argv)
    rows = comparison.compare(
        args.parent, args.change, comparison.load_benchmark()
    )
    print(comparison.render(rows))
    return 1 if any(r["ruling"] == "regression" for r in rows) else 0


def cmd_summary(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py summary")
    parser.add_argument("runs", help="directory of run records")
    args = parser.parse_args(argv)
    runs = comparison.load_runs(args.runs)
    print(json.dumps({
        "host": runs[0]["host"] if runs else None,
        "untraced": comparison.summarize([r for r in runs if not r["trace"]]),
        "traced": comparison.summarize([r for r in runs if r["trace"]]),
    }, indent=1, sort_keys=True))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    commands = {"compare": cmd_compare, "summary": cmd_summary}
    if argv and argv[0] in commands:
        return commands[argv[0]](argv[1:])
    return cmd_run(argv)
