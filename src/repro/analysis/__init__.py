"""repro-lint: AST-based static analysis for the engine's own invariants.

Generic linters cannot check what this project actually relies on — that
the simulated core stays deterministic, that every protocol message is
dispatched and traffic-accounted, that metrics counters reach the result
schema, and that library errors stay inside the :class:`~repro.errors.ReproError`
hierarchy.  This package machine-checks those invariants on every PR::

    python -m repro.analysis check            # human output
    python -m repro.analysis check --format json
    python -m repro.analysis list             # shipped rules

See :mod:`repro.analysis.rules` for how to add a rule and
:mod:`repro.lint` for the allowlist decorator.
"""

from __future__ import annotations

from repro.analysis.base import Finding, Rule, SourceFile
from repro.analysis.baseline import (
    apply_baseline,
    fingerprint,
    load_baseline,
    write_baseline,
)
from repro.analysis.driver import AnalysisReport, analyze, select_rules
from repro.analysis.project import Project, default_package_root
from repro.analysis.rules import ALL_RULES, rules_by_name

__all__ = [
    "ALL_RULES",
    "AnalysisReport",
    "Finding",
    "Project",
    "Rule",
    "SourceFile",
    "analyze",
    "apply_baseline",
    "default_package_root",
    "fingerprint",
    "load_baseline",
    "rules_by_name",
    "select_rules",
    "write_baseline",
]
