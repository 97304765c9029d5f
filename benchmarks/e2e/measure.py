"""Running a workload: child processes, repetitions and set-up probes.

Every CLI command runs in a fresh child process, one child at a time,
with ``PYTHONPATH`` pointing at the checkout's ``src/``.  A repetition
runs all of a workload's commands in a new scratch directory (so the
result cache and sweep journal always start cold) and removes it
afterwards.

Every child shares its core with a :mod:`calibrate` process, and its
*cost* is its CPU seconds (user + system, from ``os.wait4``)
scaled to the reference rate :data:`REFERENCE_RATE` by the
calibrator's rate over the same interval, raised to
:data:`SPEED_EXPONENT`: the seconds the child would take on a host
where the calibration loop runs at that rate.  This cancels most of
the host's speed swings.  Wall-clock time and raw CPU time are kept in
the run record beside it.  Memory is the child's peak resident set.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

from .oracle import StepOutcome, inspect_step, workload_digest
from .workloads import Workload, file_of, materialize

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
WORK = ROOT / ".e2e_work"
LAYERS = Path(__file__).resolve().parent / "layers.py"
CALIBRATE = Path(__file__).resolve().parent / "calibrate.py"

#: Calibration units per CPU second that define one reference second
#: (about the fast end of what a 2.1 GHz Xeon vCPU delivers).
REFERENCE_RATE = 2000.0
#: How the emulator's CPU time follows the calibrator's rate.  On a
#: 2-vCPU Xeon host, log CPU time fell by 0.7-0.9 per unit of log rate
#: between repetitions of one run and by 0.8-1.05 between runs; 0.9
#: gave the smallest spread of run medians over ten seeds on all six
#: workloads (1-5 %, against 16-53 % for raw wall-clock time).
SPEED_EXPONENT = 0.9

#: The set-up probe: interpreter start, ``import repro``, sweep parsing
#: and a platform build for every scenario, but no emulated cycle.
PROBE = """\
import sys
from repro.core.platform import build_platform
from repro.experiments import Sweep
for path in sys.argv[1:]:
    for spec in Sweep.from_file(path):
        build_platform(spec.to_platform_config())
"""


@dataclass(frozen=True)
class Child:
    """One finished child process."""

    cost_s: float
    wall_s: float
    cpu_s: float
    rate: float
    rss_mb: float
    code: int


@dataclass
class Rep:
    """One repetition of a workload."""

    children: List[Child] = field(default_factory=list)
    outcomes: List[StepOutcome] = field(default_factory=list)
    spans: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def cost_s(self) -> float:
        return sum(c.cost_s for c in self.children)

    @property
    def rss_mb(self) -> float:
        return max(c.rss_mb for c in self.children)

    @property
    def digest(self) -> str:
        return workload_digest(self.outcomes)

    @property
    def cycles(self) -> int:
        return sum(o.cycles for o in self.outcomes)

    @property
    def attempted(self) -> int:
        return sum(o.attempted for o in self.outcomes)

    @property
    def failed(self) -> int:
        return sum(o.failed for o in self.outcomes)


def source_present() -> bool:
    """True when the checkout holds the program's sources."""
    return (SRC / "repro" / "__init__.py").is_file()


def pin_to_one_core() -> None:
    """Run this process, and so every child and calibrator it starts,
    on a single core."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def spawn(argv: List[str], cwd: str, stem: str) -> Child:
    """Run one child to completion beside a calibrator.  Its stdout and
    stderr go to ``<stem>.stdout``/``.stderr``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    calibrator = subprocess.Popen(
        [sys.executable, str(CALIBRATE)], stdout=subprocess.PIPE, text=True
    )
    try:
        calibrator.stdout.readline()
        with open(f"{stem}.stdout", "wb") as out, \
                open(f"{stem}.stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=cwd, env=env, stdout=out, stderr=err
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        calibrator.terminate()
        units, seconds = calibrator.communicate(timeout=30)[0].split()
    finally:
        calibrator.kill()
        calibrator.wait()
    rate = int(units) / float(seconds)
    cpu = usage.ru_utime + usage.ru_stime
    return Child(
        cost_s=cpu * (rate / REFERENCE_RATE) ** SPEED_EXPONENT,
        wall_s=wall,
        cpu_s=cpu,
        rate=rate,
        rss_mb=usage.ru_maxrss / 1024.0,
        code=proc.returncode,
    )


def _scratch() -> str:
    WORK.mkdir(exist_ok=True)
    return tempfile.mkdtemp(dir=WORK)


def run_rep(workload: Workload, traced: bool = False) -> Rep:
    """Run every command of ``workload`` once, cold, and check it."""
    directory = _scratch()
    try:
        argvs = materialize(workload, directory)
        rep = Rep()
        for step, argv in zip(workload, argvs):
            spans_path = file_of(directory, step, "spans.jsonl")
            if traced:
                command = [sys.executable, str(LAYERS), spans_path, *argv]
            else:
                command = [sys.executable, "-m", "repro", *argv]
            stem = os.path.join(directory, step.name)
            child = spawn(command, directory, stem)
            rep.children.append(child)
            rep.outcomes.append(inspect_step(directory, step, child.code))
            if traced and os.path.exists(spans_path):
                with open(spans_path, encoding="utf-8") as fh:
                    rep.spans += [json.loads(line) for line in fh]
        return rep
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def probe_setup(workload: Workload) -> Child:
    """Start the interpreter, import the program, parse the workload's
    sweeps and build every platform, in a fresh child."""
    directory = _scratch()
    try:
        materialize(workload, directory)
        docs = [file_of(directory, s, "sweep.json") for s in workload]
        child = spawn(
            [sys.executable, "-c", PROBE, *docs],
            directory,
            os.path.join(directory, "probe"),
        )
        if child.code != 0:
            with open(os.path.join(directory, "probe.stderr")) as fh:
                raise RuntimeError(f"set-up probe failed:\n{fh.read()}")
        return child
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def clean_scratch() -> None:
    try:
        WORK.rmdir()
    except OSError:
        pass
