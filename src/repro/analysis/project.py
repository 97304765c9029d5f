"""Source loading: files -> parsed modules with pragmas.

A :class:`Project` is the unit a rule checks: every module's source
text, AST, and parsed pragmas, addressable by posix-path suffix so
the same rule configuration ("the capture module is
``repro/checkpoint/capture.py``") works for the real tree, for test
fixtures in temporary directories, and for overlays.

Overlays
--------
``load_project(paths, overlay={...})`` substitutes source text by
path: a key matching a loaded file (exact path or posix-suffix match)
replaces that file's text; an unmatched key becomes a virtual module.
Tests use this to ask "what would the lint say if this raw read were
added?" without editing the tree.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.pragmas import PragmaSet, parse_pragmas

__all__ = ["ModuleSource", "Project", "load_project"]


def _posix(path: str) -> str:
    return path.replace(os.sep, "/")


class ModuleSource:
    """One parsed module: path, text, lines, AST, pragmas."""

    def __init__(self, path: str, text: str) -> None:
        self.path = _posix(path)
        self.text = text
        self.lines = text.splitlines()
        self.parse_error: Optional[str] = None
        try:
            self.tree: ast.Module = ast.parse(text, filename=path)
        except SyntaxError as exc:
            self.parse_error = f"{exc.msg} (line {exc.lineno})"
            self.tree = ast.Module(body=[], type_ignores=[])
        self.pragmas: PragmaSet = parse_pragmas(text, self.lines)

    def matches(self, suffix: str) -> bool:
        """True when this module *is* ``suffix`` (posix-path match)."""
        suffix = _posix(suffix)
        return self.path == suffix or self.path.endswith("/" + suffix)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ModuleSource({self.path!r})"


class Project:
    """The set of modules one lint run checks."""

    def __init__(self, modules: List[ModuleSource]) -> None:
        self.modules = modules

    def module(self, suffix: str) -> Optional[ModuleSource]:
        for mod in self.modules:
            if mod.matches(suffix):
                return mod
        return None

    def __iter__(self):
        return iter(self.modules)

    def __len__(self) -> int:
        return len(self.modules)


def _walk_python_files(paths: Iterable[str]) -> List[str]:
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs.sort()
                for name in sorted(names):
                    if name.endswith(".py"):
                        files.append(os.path.join(root, name))
        else:
            files.append(path)
    # Deduplicate while keeping deterministic order.
    seen = set()
    unique = []
    for path in files:
        norm = os.path.normpath(path)
        if norm not in seen:
            seen.add(norm)
            unique.append(norm)
    return unique


def _overlay_text(
    path: str, overlay: Dict[str, str]
) -> Tuple[Optional[str], Optional[str]]:
    """The overlay (key, text) applying to ``path``, if any."""
    posix = _posix(path)
    for key, text in overlay.items():
        key_px = _posix(key)
        if posix == key_px or posix.endswith("/" + key_px):
            return key, text
    return None, None


def load_project(
    paths: Iterable[str],
    overlay: Optional[Dict[str, str]] = None,
) -> Project:
    """Load every ``.py`` file under ``paths`` into a project.

    ``overlay`` maps paths (exact or posix suffixes of loaded files)
    to replacement source text; unmatched keys are added as virtual
    modules so fixtures need not exist on disk.
    """
    overlay = dict(overlay or {})
    matched_keys = set()
    modules: List[ModuleSource] = []
    for path in _walk_python_files(paths):
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        key, replacement = _overlay_text(path, overlay)
        if key is not None:
            matched_keys.add(key)
            text = replacement if replacement is not None else text
        modules.append(ModuleSource(path, text))
    for key in sorted(overlay):
        if key not in matched_keys:
            modules.append(ModuleSource(key, overlay[key]))
    return Project(modules)
