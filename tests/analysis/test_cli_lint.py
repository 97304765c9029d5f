"""The ``repro lint`` subcommand: flags, exit codes, JSON output."""

import json
from pathlib import Path

import pytest

from repro.analysis import ALL_RULES
from repro.analysis.reporters import LINT_REPORT_SCHEMA
from repro.cli import main

REPO = Path(__file__).resolve().parents[2]
SRC = str(REPO / "src" / "repro")


def test_lint_src_repro_exits_zero(capsys):
    assert main(["lint", SRC]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("rules")
    assert out.startswith("0 findings")


def test_lint_default_paths_cover_the_installed_package(capsys):
    assert main(["lint"]) == 0
    capsys.readouterr()


def test_lint_json_report(capsys):
    assert main(["lint", SRC, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == LINT_REPORT_SCHEMA
    assert report["ok"] is True
    assert report["findings"] == []
    assert report["rules"] == sorted(rule.id for rule in ALL_RULES)


def test_lint_single_rule_selection(capsys):
    assert main(["lint", SRC, "--rule", "wall-clock", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rules"] == ["wall-clock"]


def test_lint_finds_violations_and_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import time\n\ndef f():\n    return time.time()\n",
        encoding="utf-8",
    )
    assert main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "[wall-clock]" in out


def test_lint_unknown_rule_exits_two(capsys):
    assert main(["lint", SRC, "--rule", "no-such-rule"]) == 2
    err = capsys.readouterr().err
    assert "unknown rule" in err
    assert "wall-clock" in err  # the known-rule list is printed


def test_lint_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ALL_RULES:
        assert f"{rule.id}:" in out


def test_lint_verbose_shows_suppressions(tmp_path, capsys):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import time\n\n"
        "def f():\n"
        "    return time.time()  # repro: allow[wall-clock] test harness\n",
        encoding="utf-8",
    )
    assert main(["lint", str(mod), "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "suppressed (pragma: test harness)" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_lint_output_is_deterministic(fmt, capsys):
    assert main(["lint", SRC, "--format", fmt]) == 0
    first = capsys.readouterr().out
    assert main(["lint", SRC, "--format", fmt]) == 0
    assert capsys.readouterr().out == first
