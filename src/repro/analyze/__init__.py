"""``repro.analyze`` — the repo-invariant static-analysis pass.

``python -m repro.analyze --check`` parses every module under
``src/repro`` (stdlib ``ast``; the analyzed code is never imported) and
enforces the invariants the test suite can only sample:

=================  ====================================================
rule               invariant
=================  ====================================================
``determinism``    cache-key/wire paths call no clocks, randomness or
                   per-process identity; no numpy global-RNG use anywhere
``lock-discipline``  ``# guarded-by: <lock>``-annotated attributes are
                   only touched under ``with self.<lock>:``
``pickle-boundary``  no ``pickle`` loading anywhere: every cache entry
                   and fabric payload is an inert JSON record
``env-knob``       ``REPRO_*`` env reads go through :mod:`repro.knobs`
``wire-hygiene``   mounted routes match the documented route tables;
                   knobs are documented in README; wire dataclass edits
                   bump their schema version (schema lock)
``bare-except``    broad handlers re-raise, bind-and-report, or carry an
                   explicit allow comment
=================  ====================================================

Suppress a single site with a ``# repro: allow[rule]`` comment; pre-
existing findings are grandfathered in ``analyze_baseline.txt`` (which
may only shrink).  See the README's "Static analysis" section.
"""

from __future__ import annotations

from repro.analyze import (
    bare_except,
    determinism,
    env_knobs,
    locks,
    pickle_boundary,
    wire_hygiene,
)
from repro.analyze.core import Finding, Module, Project, load_project

#: Every checker, in report order.
CHECKERS = (
    determinism,
    locks,
    pickle_boundary,
    env_knobs,
    wire_hygiene,
    bare_except,
)

#: Every rule name a suppression comment may reference.
RULES = tuple(checker.RULE for checker in CHECKERS)


def run_checkers(project: Project) -> list[Finding]:
    """All findings over one project, sorted for stable output."""
    findings: list[Finding] = []
    for checker in CHECKERS:
        findings.extend(checker.check(project))
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.context))
    return findings


__all__ = [
    "CHECKERS",
    "RULES",
    "Finding",
    "Module",
    "Project",
    "load_project",
    "run_checkers",
]
