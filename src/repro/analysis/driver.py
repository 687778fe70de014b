"""Running rules over a project and collecting their findings."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analysis.base import Finding, Rule
from repro.analysis.project import Project
from repro.analysis.rules import ALL_RULES
from repro.errors import AnalysisError


@dataclass
class AnalysisReport:
    """The outcome of one analysis run."""

    package_root: str
    files_analyzed: int
    rules_run: List[str]
    #: Every finding, sorted by location; each one fails the check.
    findings: List[Finding]

    @property
    def ok(self) -> bool:
        """Whether the tree satisfies every checked invariant."""
        return not self.findings

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe rendering (the ``--format json`` document)."""
        return {
            "version": 2,
            "package_root": self.package_root,
            "files_analyzed": self.files_analyzed,
            "rules_run": list(self.rules_run),
            "ok": self.ok,
            "findings": [
                {
                    "rule": f.rule,
                    "path": f.path,
                    "line": f.line,
                    "message": f.message,
                }
                for f in self.findings
            ],
        }


def select_rules(names: Optional[Sequence[str]]) -> List[Rule]:
    """The shipped rules matching ``names`` (all of them when ``None``)."""
    if names is None:
        return list(ALL_RULES)
    registry = {rule.name: rule for rule in ALL_RULES}
    unknown = [name for name in names if name not in registry]
    if unknown:
        known = ", ".join(sorted(registry))
        raise AnalysisError(f"unknown rule {unknown[0]!r}; known rules: {known}")
    return [registry[name] for name in names]


def analyze(
    package_root: Path, rule_names: Optional[Sequence[str]] = None
) -> AnalysisReport:
    """Run the selected rules (all by default) over ``package_root``.

    Parse failures are reported as findings of the pseudo-rule
    ``parse-error`` — a file the analyzer cannot read is never silently
    clean.
    """
    rules = select_rules(rule_names)
    project = Project(package_root)
    findings: List[Finding] = list(project.parse_failures)
    for rule in rules:
        findings.extend(rule.check(project))
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return AnalysisReport(
        package_root=str(project.package_root),
        files_analyzed=len(project),
        rules_run=[rule.name for rule in rules],
        findings=findings,
    )
