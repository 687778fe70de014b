"""Rule ``exception-discipline`` — no bare builtin raises in the library.

Every error the library raises derives from
:class:`~repro.errors.ReproError` so callers can catch one base class; the
PR 2 bug class was exactly a bare ``ValueError`` escaping through the
engine's public API and corrupting caller state that expected
``EngineError``.  This rule pins the discipline forever: a ``raise`` of a
builtin exception (``ValueError``, ``TypeError``, ``RuntimeError``,
``Exception`` …) anywhere in :mod:`repro` is a violation — raise the
matching :mod:`repro.errors` subclass instead (add one if no existing
class fits).

Re-raises (bare ``raise``), ``raise ... from ...`` chains whose *new*
exception is a project error, and builtin exceptions used in ``except``
clauses are all fine; only *originating* a builtin is banned.
Three exemptions follow Python's own protocols: ``NotImplementedError``
(abstract-surface convention), ``StopIteration``/``StopAsyncIteration``
(iterator protocol), and ``AttributeError`` raised in a module-level
``__getattr__`` (:pep:`562`: ``hasattr``/``getattr`` probing depends on it).
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.analysis.base import Finding, Rule
from repro.analysis.project import Project

#: Builtin exception classes that must not be originated by library code.
BANNED_BUILTINS: Set[str] = {
    "Exception",
    "BaseException",
    "ValueError",
    "TypeError",
    "RuntimeError",
    "KeyError",
    "IndexError",
    "AttributeError",
    "ArithmeticError",
    "ZeroDivisionError",
    "OSError",
    "IOError",
    "LookupError",
    "AssertionError",
}


class ExceptionDisciplineRule(Rule):
    """Library code raises repro.errors subclasses, never bare builtins."""

    name = "exception-discipline"
    description = (
        "no `raise ValueError/Exception/...` in repro code — raise a "
        "descriptive repro.errors subclass"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for sf in project.files():
            pep562_raises = {
                id(node)
                for func in sf.tree.body
                if isinstance(func, ast.FunctionDef) and func.name == "__getattr__"
                for node in ast.walk(func)
                if isinstance(node, ast.Raise)
            }
            for node in ast.walk(sf.tree):
                if not isinstance(node, ast.Raise) or node.exc is None:
                    continue
                exc = node.exc
                name = None
                if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                    name = exc.func.id
                elif isinstance(exc, ast.Name):
                    name = exc.id
                if name == "AttributeError" and id(node) in pep562_raises:
                    continue
                if name in BANNED_BUILTINS:
                    yield self.finding(
                        sf,
                        node,
                        f"raise {name}: library errors must derive from "
                        "ReproError so callers can catch one hierarchy — "
                        "use (or add) a descriptive subclass in "
                        "repro/errors.py",
                    )
