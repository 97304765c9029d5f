"""Machine-independent guards on a command's set-up work: which modules
a process imports, and how often a sweep builds a topology just to
validate it.  No timers: each guard counts work."""

from __future__ import annotations

import json

import pytest

import repro.core.config as config
from repro.core.config import check_topology_spec
from repro.core.errors import ConfigError
from repro.experiments import ScenarioSpec, Sweep

LOADED = (
    "import sys\n"
    "print('\\n' + ' '.join(sorted(n for n in sys.modules"
    " if n.split('.')[0] == 'repro')))\n"
)

#: What the set-up probe (build platforms from a sweep) must not load.
NOT_FOR_SETUP = (
    "repro.core.engine",
    "repro.core.flow",
    "repro.core.monitor",
    "repro.core.processor",
    "repro.experiments.cache",
    "repro.experiments.report",
    "repro.experiments.resilience",
    "repro.experiments.runner",
    "repro.faults.injector",
    "repro.faults.report",
    "repro.fpga",
    "repro.stats.occupancy",
    "repro.stats.runtime",
    "repro.stats.summary",
)

#: What a healthy ``repro batch`` must not load, by package prefix.
NOT_FOR_BATCH = (
    "repro.analysis",
    "repro.baselines",
    "repro.checkpoint",
    "repro.core.flow",
    "repro.fpga",
    "repro.telemetry.trace",
)


def loaded_by(run_fresh, code: str) -> set:
    """The ``repro`` modules loaded after running ``code``."""
    return set(run_fresh(code + LOADED).splitlines()[-1].split())


def loaded_by_cli(run_fresh, *argv: str) -> set:
    """The ``repro`` modules loaded by a successful ``repro ARGV``."""
    return loaded_by(
        run_fresh,
        "import runpy, sys\n"
        f"sys.argv = ['repro', *{list(argv)!r}]\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n",
    )


def test_import_repro_loads_no_submodule(run_fresh):
    loaded = loaded_by(run_fresh, "import repro\n")
    assert loaded == {"repro", "repro.lazy"}


def test_setup_path_imports_only_what_it_runs(run_fresh):
    loaded = loaded_by(
        run_fresh,
        "from repro.core.platform import build_platform\n"
        "from repro.experiments import Sweep\n",
    )
    assert "repro.core.platform" in loaded
    assert "repro.experiments.spec" in loaded
    assert loaded.isdisjoint(NOT_FOR_SETUP)


def test_batch_imports_only_what_it_runs(run_fresh, tmp_path):
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({
        "base": {"topology": "mesh:2:2", "packets": 5, "load": 0.1},
        "grid": {"seed": [1, 2]},
    }))
    loaded = loaded_by_cli(run_fresh, "batch", str(sweep), "--no-cache")
    assert "repro.experiments.runner" in loaded
    assert not [
        name for name in loaded
        if any(name.startswith(prefix) for prefix in NOT_FOR_BATCH)
    ]


def test_checkpointed_run_imports_no_sweep_machinery(run_fresh, tmp_path):
    cp = tmp_path / "cp.json"
    loaded = loaded_by_cli(
        run_fresh, "run", "--topology", "mesh:2:2", "--packets", "5",
        "--checkpoint-every", "50", "--checkpoint-out", str(cp),
    )
    assert {"repro.checkpoint", "repro.checkpoint.capture"} <= loaded
    assert loaded.isdisjoint({
        "repro.experiments.cache",
        "repro.experiments.resilience",
        "repro.experiments.runner",
    })


def test_paper_run_imports_no_flow_or_synthesis(run_fresh):
    """A plain paper run takes the one spec -> engine path: no six-step
    flow, no bus processor, no FPGA model."""
    loaded = loaded_by_cli(run_fresh, "run", "--packets", "20")
    assert "repro.core.engine" in loaded
    assert not [
        name for name in loaded
        if name in ("repro.core.flow", "repro.core.processor")
        or name.startswith("repro.fpga")
    ]


def test_traced_run_imports_no_checkpoint_package(run_fresh, tmp_path):
    """Only ``--resume``/``--checkpoint-out`` need the checkpoint
    package; a windowed, traced run writes no checkpoint."""
    loaded = loaded_by_cli(
        run_fresh, "run", "--packets", "20", "--windows", "1000",
        "--trace", str(tmp_path / "t.jsonl"),
        "--trace-perfetto", str(tmp_path / "t.json"),
    )
    assert "repro.telemetry.trace" in loaded
    assert not [
        name for name in loaded if name.startswith("repro.checkpoint")
    ]


class TestTopologyValidationMemo:
    #: ``sweep_short``'s grid document, inlined: 48 specs over two
    #: topologies.
    SWEEP = {
        "base": {
            "traffic": "uniform", "packets": 20, "telemetry_windows": 250,
        },
        "grid": {
            "topology": ["mesh:4:4", "torus:4:4"],
            "seed": [11, 12],
            "load": [0.1, 0.2, 0.3],
            "buffer_depth": [2, 4],
            "faults": [None, {"repair": True, "events": [
                {"kind": "link_down", "cycle": 300, "a": 5, "b": 6},
                {"kind": "link_up", "cycle": 900, "a": 5, "b": 6},
                {"kind": "flaky", "cycle": 1000, "a": 9, "b": 10,
                 "until": 1400, "drop_p": 0.05, "seed": 13},
            ]}],
        },
    }

    @pytest.fixture
    def factory_calls(self, monkeypatch):
        calls = []
        for name in ("mesh", "torus"):
            factory = getattr(config, name)

            def counted(*args, _factory=factory, _name=name):
                calls.append(_name)
                return _factory(*args)

            monkeypatch.setattr(config, name, counted)
        check_topology_spec.cache_clear()
        yield calls
        check_topology_spec.cache_clear()

    def test_sweep_builds_each_topology_once(self, factory_calls):
        specs = Sweep.from_dict(self.SWEEP)
        assert len(specs) == 48
        assert len(factory_calls) <= 2

    def test_memo_holds_counts_not_topologies(self, factory_calls):
        assert check_topology_spec("mesh:4:4").n_nodes == 16
        assert check_topology_spec("mesh:4:4").n_nodes == 16
        assert factory_calls == ["mesh"]
        spec = ScenarioSpec(topology="mesh:4:4", packets=5)
        first = spec.to_platform_config().topology
        second = spec.to_platform_config().topology
        assert first is not second

    def test_malformed_spec_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(ConfigError, match="malformed"):
                check_topology_spec("mesh:4")
