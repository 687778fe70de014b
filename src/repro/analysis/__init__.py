"""repro-lint: AST-based static analysis for the engine's own invariants.

Generic linters cannot check what this reproduction relies on, and the
three rules here check only that: the simulated core stays deterministic
(``determinism-purity``), every protocol message is dispatched and charged
to its sender (``protocol-completeness``), and library errors stay inside
the :class:`~repro.errors.ReproError` hierarchy
(``exception-discipline``).  Typing is mypy's job, style is ruff's::

    python -m repro.analysis check            # human output
    python -m repro.analysis check --format json
    python -m repro.analysis list             # shipped rules

See :mod:`repro.analysis.rules` for how to add a rule.
"""

from __future__ import annotations

from repro.analysis.base import Finding, Rule, SourceFile
from repro.analysis.driver import AnalysisReport, analyze, select_rules
from repro.analysis.project import Project, default_package_root
from repro.analysis.rules import ALL_RULES

__all__ = [
    "ALL_RULES",
    "AnalysisReport",
    "Finding",
    "Project",
    "Rule",
    "SourceFile",
    "analyze",
    "default_package_root",
    "select_rules",
]
