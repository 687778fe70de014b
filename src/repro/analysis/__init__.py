"""repro-lint: AST-based static analysis for the engine's own invariants.

Generic linters cannot check what this reproduction relies on, and the
two rules here check only that: the simulated core stays deterministic
(``determinism-purity``), and library errors stay inside the
:class:`~repro.errors.ReproError` hierarchy (``exception-discipline``).
Typing is mypy's job, style is ruff's.  The protocol is checked by running
it: tier-1 holds the node's dispatch table to the declared messages and
every posted envelope to the traffic it was charged::

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
