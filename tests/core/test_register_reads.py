"""Pins of what the processor reads from every device register.

``data/register_reads.json`` holds, for the paper platform and
``mesh:3:3`` under every traffic model and both receptor kinds, each
device's first bus read of each of its registers at three points: just
after ``build_platform``, after a short run, and after a ``CTRL`` reset
write to every TG.  It was recorded while register banks were still
built in the device constructors, so it pins that building a bank on
first access reads the same values.  Regenerate (only to record a
deliberate register-map change) with
``PYTHONPATH=src python tests/core/test_register_reads.py``.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro.core import registers
from repro.core.config import TG_MODELS, TR_KINDS
from repro.core.devices import TG_CTRL_ENABLE, TG_CTRL_RESET
from repro.core.platform import build_platform
from repro.core.registers import WORD_BYTES
from repro.experiments.spec import ScenarioSpec

DATA = os.path.join(os.path.dirname(__file__), "data", "register_reads.json")
TOPOLOGIES = ("paper", "mesh:3:3")
PHASES = ("built", "ran", "reset")
RUN_CYCLES = 300


def _case(name: str) -> ScenarioSpec:
    topology, traffic, receptors = name.split("/")
    return ScenarioSpec(
        topology=topology,
        traffic=traffic,
        receptors=receptors,
        load=0.3,
        packets=20,
    )


CASES = [
    f"{topology}/{traffic}/{receptors}"
    for topology in TOPOLOGIES
    for traffic in TG_MODELS
    for receptors in TR_KINDS
]


def _read_all(platform):
    """Every device's bus read of every register, in address order."""
    fabric = platform.fabric
    return {
        device.name: [
            fabric.read(device.base_address + WORD_BYTES * index)
            for index in range(len(device.bank))
        ]
        for device in fabric.devices()
    }


def register_reads(name: str):
    """The three read-outs of one case, on fresh platforms."""
    config = _case(name).to_platform_config
    reads = {"built": _read_all(build_platform(config()))}
    platform = build_platform(config())
    platform.run(RUN_CYCLES)
    reads["ran"] = _read_all(platform)
    platform = build_platform(config())
    platform.run(RUN_CYCLES)
    for device in platform.tg_devices:
        platform.fabric.write(
            device.register_address("CTRL"),
            TG_CTRL_ENABLE | TG_CTRL_RESET,
        )
    reads["reset"] = _read_all(platform)
    return reads


def _recorded():
    with open(DATA, encoding="utf-8") as fh:
        return json.load(fh)


def test_data_covers_every_case():
    assert sorted(_recorded()) == sorted(CASES)


@pytest.mark.parametrize("name", CASES)
def test_register_reads_match_the_recording(name):
    assert register_reads(name) == _recorded()[name]


def test_building_a_platform_constructs_no_register(monkeypatch):
    made = []
    original = registers.Register.__init__

    def counting(self, *args, **kwargs):
        made.append(args[0] if args else kwargs.get("name"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(registers.Register, "__init__", counting)
    spec = ScenarioSpec(topology="mesh:8:8", packets=4)
    platform = build_platform(spec.to_platform_config())
    assert made == []
    # The first access builds the bank with its usual registers.
    assert platform.tg_devices[0].bank["CTRL"].read() == TG_CTRL_ENABLE
    assert "SEED" in made


def _write_recording() -> None:
    payload = {name: register_reads(name) for name in CASES}
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    with open(DATA, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        lines = [
            f"{json.dumps(name)}: "
            + json.dumps(payload[name], separators=(",", ":"))
            for name in CASES
        ]
        fh.write(",\n".join(lines))
        fh.write("\n}\n")


if __name__ == "__main__":
    sys.exit(_write_recording())
