"""The rule catalogue and shared AST plumbing.

Adding a rule
-------------
1. Subclass :class:`Rule` in the fitting module (or a new one): set
   ``id`` (kebab-case, becomes the pragma name), ``description``, and
   implement ``check(project)`` yielding
   :class:`~repro.analysis.findings.Finding` objects whose ``line``
   is where a suppressing pragma should sit.
2. Append an instance to ``ALL_RULES`` below.
3. Add a violating/clean fixture pair in ``tests/analysis/`` and a
   row to the catalogue table in ``ROADMAP.md``.

Rules receive the whole :class:`~repro.analysis.project.Project`, not
one module at a time, because the deepest checks are cross-module
(settle-on-read judges every module's reads against the modules that
own each raw field).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.findings import Finding
from repro.analysis.project import ModuleSource, Project

__all__ = [
    "ALL_RULES",
    "RULES_BY_ID",
    "Rule",
    "dotted_name",
    "import_map",
    "iter_calls",
    "resolve_call",
]


class Rule:
    """Base class: one convention, one pragma id."""

    id: str = ""
    description: str = ""

    def check(self, project: Project) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: ModuleSource, line: int, message: str
    ) -> Finding:
        return Finding(
            rule=self.id, path=module.path, line=line, message=message
        )


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_map(tree: ast.Module) -> Dict[str, str]:
    """Local name -> fully-qualified imported name.

    ``import time`` maps ``time -> time``; ``from time import
    perf_counter as pc`` maps ``pc -> time.perf_counter``.  Relative
    imports are skipped — they cannot reach the stdlib modules the
    determinism rules care about.
    """
    names: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    names[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    names[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                names[local] = f"{node.module}.{alias.name}"
    return names


def resolve_call(
    node: ast.Call, imports: Dict[str, str]
) -> Optional[str]:
    """The canonical dotted name a call resolves to, or None.

    Only resolves when the head name was introduced by an import —
    ``self.time.time()`` or a local variable named ``random`` never
    match.
    """
    dotted = dotted_name(node.func)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    if head not in imports:
        return None
    full = imports[head]
    return f"{full}.{rest}" if rest else full


def iter_calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
from repro.analysis.rules.determinism import (  # noqa: E402
    CanonicalJsonRule,
    IdOrderingRule,
    UnseededRngRule,
    UnsortedSetIterRule,
    WallClockRule,
)
from repro.analysis.rules.parking import ParkingWakeRule  # noqa: E402
from repro.analysis.rules.robustness import (  # noqa: E402
    SwallowedExceptionRule,
)
from repro.analysis.rules.settlement import SettleOnReadRule  # noqa: E402

ALL_RULES: Tuple[Rule, ...] = (
    WallClockRule(),
    UnseededRngRule(),
    UnsortedSetIterRule(),
    IdOrderingRule(),
    CanonicalJsonRule(),
    SettleOnReadRule(),
    ParkingWakeRule(),
    SwallowedExceptionRule(),
)

RULES_BY_ID: Dict[str, Rule] = {rule.id: rule for rule in ALL_RULES}

#: The id the engine's built-in pragma hygiene findings use.
HYGIENE_RULE_ID = "pragma-hygiene"
