"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.core.config import paper_platform_config
from repro.core.platform import build_platform
from repro.noc.flit import Packet
from repro.noc.routing import build_shortest_path_tables, paper_routing
from repro.noc.topology import mesh, paper_topology


@pytest.fixture
def paper_topo():
    """The 6-switch paper topology."""
    return paper_topology()


@pytest.fixture
def paper_overlap_routing(paper_topo):
    return paper_routing(paper_topo, "overlap")


@pytest.fixture
def small_mesh():
    """A 2x2 mesh with one node per switch."""
    return mesh(2, 2)


@pytest.fixture
def small_mesh_routing(small_mesh):
    return build_shortest_path_tables(small_mesh)


@pytest.fixture
def small_paper_platform():
    """A paper platform with a small packet budget (fast to run)."""
    return build_platform(
        paper_platform_config(traffic="uniform", max_packets=100)
    )


def make_packet(
    src: int = 0, dst: int = 1, length: int = 4, cycle: int = 0
) -> Packet:
    """Test helper: one packet with sane defaults."""
    return Packet(src=src, dst=dst, length=length, injection_cycle=cycle)


@pytest.fixture
def run_fresh():
    """Run Python source in a new interpreter that imports this source
    tree; returns its stdout."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}

    def run(code: str) -> str:
        return subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True,
        ).stdout

    return run
