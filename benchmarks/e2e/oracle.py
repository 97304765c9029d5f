"""Correctness oracle: output digests and seed-independent invariants.

A speed-only change must leave every simulated statistic identical, so
each workload's deterministic outputs are hashed:

* ``batch`` steps: the ``--json`` rows, minus the ``cached`` flag;
* ``run`` steps: the ``--windows-out`` series, plus the final
  checkpoint's content hash and the flit-trace JSONL bytes when the
  step writes them.

``expected.json`` holds the digests at the committed seeds.  At any
seed, every scenario must also satisfy the invariants: it completed,
and every packet sent was received or dropped by a fault.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
from typing import Any, List, Mapping, Optional

from .workloads import Step, file_of

EXPECTED_PATH = os.path.join(os.path.dirname(__file__), "expected.json")

_SENT_RECEIVED = re.compile(r"packets sent (\d+), received (\d+)")


@dataclass(frozen=True)
class StepOutcome:
    """What one CLI command produced, as the oracle sees it."""

    digest: str
    cycles: int
    attempted: int
    failed: int


def _canonical(payload: Any) -> bytes:
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode()


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def row_ok(row: Mapping[str, Any]) -> bool:
    """A batch row's invariants: completed, and packets conserved."""
    dropped = row.get("fault_dropped_packets") or 0
    return (
        row.get("completed") is True
        and row["packets_sent"] == row["packets_received"] + dropped
    )


def windows_ok(windows: List[Mapping[str, Any]], stdout: str) -> bool:
    """A ``run`` step's invariants, from its window series and report:
    every packet injected was ejected and the fabric ended empty."""
    match = _SENT_RECEIVED.search(stdout)
    if match is None or not windows:
        return False
    sent, received = int(match.group(1)), int(match.group(2))
    injected = sum(w["injected_packets"] for w in windows)
    ejected = sum(w["ejected_packets"] for w in windows)
    return (
        sent == received == injected == ejected
        and windows[-1]["in_flight_flits"] == 0
    )


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def inspect_step(directory: str, step: Step, exit_code: int) -> StepOutcome:
    """Digest, emulated cycles and invariant failures of one command."""
    attempted = step.scenarios
    if exit_code != 0:
        return StepOutcome("", 0, attempted, attempted)
    try:
        if step.kind == "batch":
            rows = json.loads(_read(file_of(directory, step, "rows.json")))
            for row in rows:
                row.pop("cached")
            failed = max(0, attempted - len(rows))
            failed += sum(1 for row in rows if not row_ok(row))
            return StepOutcome(
                _sha(_canonical(rows)),
                sum(row["cycles"] for row in rows),
                attempted,
                failed,
            )
        windows = json.loads(
            _read(file_of(directory, step, "windows.json"))
        )
        stdout = _read(file_of(directory, step, "stdout")).decode()
        parts = [_sha(_canonical(windows))]
        if "--checkpoint-out" in step.argv:
            checkpoint = json.loads(
                _read(file_of(directory, step, "checkpoint.json"))
            )
            parts.append(checkpoint["hash"])
        if "--trace" in step.argv:
            parts.append(_sha(_read(file_of(directory, step, "trace.jsonl"))))
        return StepOutcome(
            _sha("/".join(parts).encode()),
            windows[-1]["end"] if windows else 0,
            attempted,
            0 if windows_ok(windows, stdout) else attempted,
        )
    except (OSError, ValueError, KeyError, TypeError):
        return StepOutcome("", 0, attempted, attempted)


def workload_digest(outcomes: List[StepOutcome]) -> str:
    return _sha("/".join(o.digest for o in outcomes).encode())


def expected_digest(workload: str, seed: int) -> Optional[str]:
    """The committed digest of ``workload`` at ``seed``, if any."""
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))
