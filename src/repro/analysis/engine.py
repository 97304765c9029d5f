"""The lint engine: load, check, suppress, report.

:func:`run_lint` is the one entry point — the CLI subcommand, the
tier-1 gate and the unit tests all call it.  Suppression has exactly
one mechanism: a pragma, ``# repro: allow[rule-id] reason``, on the
finding's line (or a comment-only line directly above it).

Whatever survives is a failure.  Hygiene problems — malformed
pragmas, missing reasons, pragmas naming unknown rules — surface as
findings of the built-in ``pragma-hygiene`` rule, so the suppression
machinery cannot rot silently.  Unparseable files are findings too
(``parse-error``), never silent skips.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.findings import Finding
from repro.analysis.project import Project, load_project
from repro.analysis.rules import ALL_RULES, HYGIENE_RULE_ID, RULES_BY_ID

__all__ = ["LintResult", "run_lint"]

PARSE_RULE_ID = "parse-error"


@dataclass
class LintResult:
    """Everything one lint run produced."""

    #: Unsuppressed findings, canonically sorted.  Non-empty = fail.
    findings: List[Finding]
    #: ``(finding, how)`` pairs removed by a pragma.
    suppressed: List[Tuple[Finding, str]] = field(default_factory=list)
    #: Rule ids that ran, sorted.
    rules: List[str] = field(default_factory=list)
    #: Number of modules checked.
    files: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings


def _select_rules(rule_ids: Optional[Iterable[str]]):
    if rule_ids is None:
        return list(ALL_RULES)
    selected = []
    for rule_id in rule_ids:
        if rule_id not in RULES_BY_ID:
            known = ", ".join(sorted(RULES_BY_ID))
            raise ValueError(
                f"unknown rule {rule_id!r}; known rules: {known}"
            )
        selected.append(RULES_BY_ID[rule_id])
    return selected


def _hygiene_findings(project: Project) -> List[Finding]:
    findings = []
    for module in project:
        if module.parse_error is not None:
            findings.append(
                Finding(
                    rule=PARSE_RULE_ID,
                    path=module.path,
                    line=1,
                    message=f"file does not parse: {module.parse_error}",
                )
            )
        for line, message in module.pragmas.problems:
            findings.append(
                Finding(
                    rule=HYGIENE_RULE_ID,
                    path=module.path,
                    line=line,
                    message=message,
                )
            )
        for line, per_rule in sorted(module.pragmas.allow.items()):
            for rule_id in sorted(per_rule):
                if (
                    rule_id not in RULES_BY_ID
                    and rule_id != HYGIENE_RULE_ID
                    and rule_id != PARSE_RULE_ID
                ):
                    findings.append(
                        Finding(
                            rule=HYGIENE_RULE_ID,
                            path=module.path,
                            line=line,
                            message=(
                                f"allow[{rule_id}] names a rule that"
                                f" does not exist"
                            ),
                        )
                    )
    return findings


def run_lint(
    paths: Iterable[str],
    rule_ids: Optional[Iterable[str]] = None,
    overlay: Optional[Dict[str, str]] = None,
) -> LintResult:
    """Lint every ``.py`` file under ``paths``.

    Parameters
    ----------
    paths:
        Files and/or directories (directories are walked).
    rule_ids:
        Run only these rules (default: all).  Hygiene checks always
        run.  Unknown ids raise ``ValueError``.
    overlay:
        ``{path: source_text}`` substitutions (see
        :func:`~repro.analysis.project.load_project`) so callers can
        lint hypothetical edits.
    """
    project = load_project(paths, overlay=overlay)
    rules = _select_rules(rule_ids)

    raw: List[Finding] = _hygiene_findings(project)
    for rule in rules:
        raw.extend(rule.check(project))

    findings: List[Finding] = []
    suppressed: List[Tuple[Finding, str]] = []
    by_path = {module.path: module for module in project}
    for finding in raw:
        module = by_path.get(finding.path)
        if module is not None and module.pragmas.allows(
            finding.line, finding.rule
        ):
            reason = module.pragmas.allow[finding.line][finding.rule]
            suppressed.append((finding, f"pragma: {reason}"))
            continue
        findings.append(finding)

    findings.sort(key=Finding.sort_key)
    suppressed.sort(key=lambda pair: pair[0].sort_key())
    ran = sorted(rule.id for rule in rules)
    return LintResult(
        findings=findings,
        suppressed=suppressed,
        rules=ran,
        files=len(project),
    )
