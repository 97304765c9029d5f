"""``repro lint`` — static enforcement of the kernel's conventions.

The emulation platform's correctness story rests on conventions that
ordinary tests exercise only indirectly: bit-identical determinism
(no wall clock, no ambient RNG, canonical JSON for everything hashed
or stored), settle-on-read access to parked-stall counters, and
wake-path registration at every parking site.  This package checks those conventions *statically*, over the
AST of the source tree, so a violation fails CI the moment it is
written rather than the week a sweep stops reproducing.

Layout
------
:mod:`~repro.analysis.project`
    Loads ``.py`` files into :class:`~repro.analysis.project.Project`
    (source + AST + pragmas), with an *overlay* mechanism letting
    tests lint hypothetical edits without touching the tree.
:mod:`~repro.analysis.rules`
    The rule catalogue.  Each rule is a class with an ``id``, a
    ``description`` and a ``check(project)`` generator of findings.
:mod:`~repro.analysis.engine`
    :func:`~repro.analysis.engine.run_lint` — load, check, suppress
    (pragmas + baseline), and return a :class:`LintResult`.
:mod:`~repro.analysis.reporters`
    Text and stable-schema JSON rendering.

Suppression
-----------
A finding on line *N* is suppressed by ``# repro: allow[rule-id]
reason`` on line *N* itself, or on a comment-only line directly above
it.  The reason is mandatory — an allow without a justification is
itself a ``pragma-hygiene`` finding.  Findings that cannot carry a
pragma (cross-file coverage gaps during a migration) go in a checked-in
baseline file instead; see :mod:`~repro.analysis.baseline`.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "LintResult": ".engine",
    "run_lint": ".engine",
    "Finding": ".findings",
    "render_json": ".reporters",
    "render_text": ".reporters",
    "ALL_RULES": ".rules",
    "RULES_BY_ID": ".rules",
})
