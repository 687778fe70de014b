"""Core datatypes of the static-analysis suite.

A :class:`Rule` inspects the parsed project (see
:class:`~repro.analysis.project.Project`) and yields :class:`Finding`
objects.  Rules never mutate anything and never import the modules they
inspect — everything works on :mod:`ast` trees, so a broken tree can still
be analyzed and the analyzer can run on fixture trees that are not
importable packages.

There is no suppression layer: every finding fails the check.  Code that
is legitimately outside an invariant is exempted by the rule itself, in
its own source (``EXEMPT_FILES`` in ``determinism-purity``, the exempt
builtins and ``__getattr__`` case in ``exception-discipline``), where the
exemption is reviewed with the rule it weakens.
"""

from __future__ import annotations

import abc
import ast
from dataclasses import dataclass
from typing import Iterator, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.project import Project


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str  # path relative to the analyzed package root, POSIX separators
    line: int
    message: str

    def render(self) -> str:
        """Human-readable one-line rendering (``path:line: [rule] message``)."""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass(frozen=True)
class SourceFile:
    """One parsed source file."""

    rel: str  # POSIX path relative to the analyzed package root
    tree: ast.Module


class Rule(abc.ABC):
    """One project invariant, checked over the parsed project."""

    #: Stable identifier used in findings and by ``analyze(rule_names=...)``.
    name: str = "abstract"
    #: One-line description shown by ``list``.
    description: str = ""

    @abc.abstractmethod
    def check(self, project: "Project") -> Iterator[Finding]:
        """Yield a finding per violation found in ``project``."""

    def finding(self, sf: SourceFile, node: ast.AST, message: str) -> Finding:
        """A finding anchored at ``node`` of ``sf``."""
        line = getattr(node, "lineno", 1)
        return Finding(rule=self.name, path=sf.rel, line=line, message=message)
