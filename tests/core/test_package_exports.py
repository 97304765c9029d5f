"""The packages' export maps: every public name is declared once and
resolves on first access, exactly as an eager import would bind it."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import types
from pathlib import Path

import pytest

import repro

PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.baselines",
    "repro.checkpoint",
    "repro.core",
    "repro.experiments",
    "repro.faults",
    "repro.fpga",
    "repro.noc",
    "repro.receptors",
    "repro.stats",
    "repro.telemetry",
    "repro.traffic",
)

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


@pytest.mark.parametrize("name", PACKAGES)
class TestExportMap:
    def test_every_export_resolves(self, name):
        package = importlib.import_module(name)
        assert package.__all__
        for export in package.__all__:
            getattr(package, export)

    def test_star_import_binds_exactly_all(self, name):
        package = importlib.import_module(name)
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        namespace.pop("__builtins__")
        assert set(namespace) == set(package.__all__)

    def test_dir_lists_exports(self, name):
        package = importlib.import_module(name)
        assert set(package.__all__) <= set(dir(package))

    def test_unknown_name_names_the_package(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match=repr(name)):
            package.no_such_export


def test_exports_are_the_defining_objects():
    from repro.core.platform import build_platform
    from repro.noc.switch import SwitchingMode

    assert repro.build_platform is build_platform
    assert repro.core.build_platform is build_platform
    assert repro.SwitchingMode is SwitchingMode
    assert repro.__version__ == "1.0.0"


def test_checkpoint_restore_is_the_function_after_module_import(
    run_fresh,
):
    """``restore`` names both a function and a submodule of
    ``repro.checkpoint``; importing the submodule first must not leave
    the package attribute pointing at the module."""
    out = run_fresh(
        "import types\n"
        "import repro.checkpoint.restore\n"
        "from repro.checkpoint import restore\n"
        "print(type(restore).__name__)\n"
    )
    assert out.strip() == types.FunctionType.__name__
    from repro.checkpoint import restore

    assert isinstance(restore, types.FunctionType)


def _example_imports():
    for path in sorted(EXAMPLES.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.ImportFrom)
                and node.module
                and node.module.split(".")[0] == "repro"
            ):
                for alias in node.names:
                    yield path.name, node.module, alias.name


EXAMPLE_IMPORTS = list(_example_imports())


def test_examples_import_from_repro():
    assert {name for name, _, _ in EXAMPLE_IMPORTS} >= {
        "quickstart.py", "paper_setup.py"
    }


@pytest.mark.parametrize(
    "example,module,name", EXAMPLE_IMPORTS,
    ids=[f"{e}:{m}.{n}" for e, m, n in EXAMPLE_IMPORTS],
)
def test_example_import_resolves(example, module, name):
    """Each name an example imports from ``repro`` exists (the
    examples themselves are not run)."""
    assert hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize(
    "path", sorted(EXAMPLES.glob("*.py")), ids=lambda path: path.name
)
def test_example_imports_by_path(path):
    """Each example executes its module body (imports, constants,
    definitions) without error; its ``__main__`` guard keeps the
    experiment itself from running."""
    spec = importlib.util.spec_from_file_location(
        f"_example_{path.stem}", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
