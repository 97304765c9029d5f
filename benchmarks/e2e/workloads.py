"""The six workloads, generated from the benchmark seed.

A workload is a short sequence of CLI commands (``python -m repro
batch ...`` or ``python -m repro run ...``).  The program sees only
what :func:`generate` returns: the sweep documents and the argv, both
a pure function of ``(workload, seed)``.  Traffic is open loop inside
the emulated platform (each generator emits on its model's schedule,
backpressured only by its NI queue); on the host side each command is
one closed-loop client running its scenarios back to back.

Sizes are chosen so that one repetition costs about 1.5-2 CPU seconds
on a 2.1 GHz Xeon vCPU; the README says why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple


@dataclass(frozen=True)
class Step:
    """One CLI command of a workload.

    ``doc`` is a sweep document: the input of a ``batch`` command, or
    for a ``run`` command the one-scenario mirror of its flags, which
    only the set-up probe reads.  ``argv`` (after ``python -m repro``)
    may hold ``{dir}``, the repetition's scratch directory; every file
    a step reads or writes is ``{dir}/<step name>.<suffix>``.
    """

    name: str
    kind: str
    doc: Dict[str, Any]
    argv: Tuple[str, ...]

    @property
    def scenarios(self) -> int:
        """Scenarios the step runs (the size of its sweep expansion)."""
        axes = self.doc.get("grid") or {}
        return math.prod(len(values) for values in axes.values())


#: A workload: its commands, in order.
Workload = Tuple[Step, ...]


def file_of(directory: str, step: Step, suffix: str) -> str:
    """Path of one of ``step``'s files inside a repetition directory."""
    return os.path.join(directory, f"{step.name}.{suffix}")


def spec_seeds(name: str, seed: int, n: int) -> List[int]:
    """``n`` spec seeds for workload ``name`` from the benchmark seed."""
    return [
        int.from_bytes(
            hashlib.sha256(f"{name}/{seed}/{i}".encode()).digest()[:4],
            "big",
        )
        for i in range(n)
    ]


def _batch(name: str, doc: Dict[str, Any]) -> Step:
    return Step(
        name,
        "batch",
        doc,
        (
            "batch", f"{{dir}}/{name}.sweep.json",
            "--workers", "1",
            "--cache-dir", "{dir}/cache",
            "--json", f"{{dir}}/{name}.rows.json",
        ),
    )


def _run(name: str, spec: Dict[str, Any], *flags: str) -> Step:
    argv = ["run"]
    for field in ("topology", "routing", "load", "packets", "seed"):
        argv += [f"--{field}", str(spec[field])]
    argv += [
        "--windows", "1000",
        "--windows-out", f"{{dir}}/{name}.windows.json",
        *(flag.format(step=name) for flag in flags),
    ]
    return Step(name, "run", {"base": spec}, tuple(argv))


def _paper_stream(seed: int) -> Workload:
    (s,) = spec_seeds("paper_stream", seed, 1)
    return (_batch("paper", {"base": {
        "topology": "paper", "traffic": "uniform", "load": 0.45,
        "packets": 3000, "seed": s,
    }}),)


def _mesh_saturated(seed: int) -> Workload:
    (s,) = spec_seeds("mesh_saturated", seed, 1)
    return (_batch("mesh", {"base": {
        "topology": "mesh:8:8", "traffic": "uniform", "load": 0.3,
        "packets": 150, "seed": s,
    }}),)


def _sparse_idle(seed: int) -> Workload:
    (s,) = spec_seeds("sparse_idle", seed, 1)
    return (_batch("sparse", {"base": {
        "topology": "mesh:4:4", "traffic": "poisson", "load": 0.002,
        "packets": 700, "seed": s,
    }}),)


def _fabric_scale(seed: int) -> Workload:
    # Uniform (periodic) rather than Poisson traffic: the emulated
    # cycle count then hardly depends on the seed, so cycles_per_s
    # does not swing from one seed to the next on this build-bound
    # workload.
    return (_batch("fabric", {
        "base": {"traffic": "uniform", "load": 0.01, "packets": 4},
        "grid": {
            "topology": [
                "mesh:12:12", "mesh:16:16", "torus:16:16", "mesh:20:20",
            ],
            "seed": spec_seeds("fabric_scale", seed, 1),
        },
    }),)


def _sweep_short(seed: int) -> Workload:
    *seeds, flaky_seed = spec_seeds("sweep_short", seed, 3)
    faults = {"repair": True, "events": [
        {"kind": "link_down", "cycle": 300, "a": 5, "b": 6},
        {"kind": "link_up", "cycle": 900, "a": 5, "b": 6},
        {"kind": "flaky", "cycle": 1000, "a": 9, "b": 10,
         "until": 1400, "drop_p": 0.05, "seed": flaky_seed},
    ]}
    return (_batch("sweep", {
        "base": {
            "traffic": "uniform", "packets": 20, "telemetry_windows": 250,
        },
        "grid": {
            "topology": ["mesh:4:4", "torus:4:4"],
            "seed": seeds,
            "load": [0.1, 0.2, 0.3],
            "buffer_depth": [2, 4],
            "faults": [None, faults],
        },
    }),)


def _debug_session(seed: int) -> Workload:
    s0, s1 = spec_seeds("debug_session", seed, 2)
    return (
        _run(
            "checkpointed",
            {"topology": "mesh:8:8", "routing": "auto", "load": 0.15,
             "packets": 100, "seed": s0},
            "--checkpoint-every", "250",
            "--checkpoint-out", "{{dir}}/{step}.checkpoint.json",
        ),
        _run(
            "traced",
            {"topology": "paper", "routing": "overlap", "load": 0.45,
             "packets": 200, "seed": s1},
            "--trace", "{{dir}}/{step}.trace.jsonl",
            "--trace-perfetto", "{{dir}}/{step}.perfetto.json",
        ),
    )


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    "paper_stream": _paper_stream,
    "mesh_saturated": _mesh_saturated,
    "sparse_idle": _sparse_idle,
    "fabric_scale": _fabric_scale,
    "sweep_short": _sweep_short,
    "debug_session": _debug_session,
}


def generate(name: str, seed: int) -> Workload:
    """The workload ``name`` for benchmark seed ``seed`` (pure)."""
    return WORKLOADS[name](seed)


def materialize(workload: Workload, directory: str) -> List[List[str]]:
    """Write the sweep documents into ``directory``; return each
    step's argv with ``{dir}`` filled in."""
    argvs = []
    for step in workload:
        with open(file_of(directory, step, "sweep.json"), "w") as fh:
            json.dump(step.doc, fh)
        argvs.append([a.format(dir=directory) for a in step.argv])
    return argvs
