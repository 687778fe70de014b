"""Loading and parsing the source tree under analysis.

A :class:`Project` is the parsed view of one *package root* — a directory
whose layout mirrors the :mod:`repro` package (``core/``, ``net/``,
``data/`` …).  For the real tree the package root is ``src/repro`` itself;
the test suite points the analyzer at fixture trees that mimic the layout
with seeded violations.

Files that fail to parse are reported as findings of the pseudo-rule
``parse-error`` rather than crashing the run, so one broken file cannot
hide every other diagnostic.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from repro.analysis.base import Finding, SourceFile
from repro.errors import AnalysisError

#: Directories never analyzed (caches, fixture sandboxes, VCS internals).
_SKIPPED_DIRS = {"__pycache__", ".git", ".mypy_cache", ".ruff_cache"}


def default_package_root() -> Path:
    """The ``repro`` package this analyzer ships inside (``src/repro``)."""
    return Path(__file__).resolve().parent.parent


class Project:
    """The parsed source files of one package root."""

    def __init__(self, package_root: Path) -> None:
        package_root = Path(package_root)
        if not package_root.is_dir():
            raise AnalysisError(
                f"package root {str(package_root)!r} is not a directory"
            )
        self.package_root = package_root.resolve()
        self._files: Dict[str, SourceFile] = {}
        self.parse_failures: List[Finding] = []
        self._load()

    def _load(self) -> None:
        for path in sorted(self.package_root.rglob("*.py")):
            if any(part in _SKIPPED_DIRS for part in path.parts):
                continue
            rel = path.relative_to(self.package_root).as_posix()
            text = path.read_text(encoding="utf-8")
            try:
                self._files[rel] = SourceFile(rel, ast.parse(text))
            except SyntaxError as exc:
                self.parse_failures.append(
                    Finding(
                        rule="parse-error",
                        path=rel,
                        line=exc.lineno or 1,
                        message=f"file does not parse: {exc.msg}",
                    )
                )

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def files(self) -> Iterator[SourceFile]:
        """Every parsed file, in deterministic (sorted-path) order."""
        for rel in sorted(self._files):
            yield self._files[rel]

    def in_dirs(self, *prefixes: str) -> Iterator[SourceFile]:
        """Parsed files whose relative path starts with any of ``prefixes``."""
        for rel in sorted(self._files):
            if any(rel.startswith(prefix) for prefix in prefixes):
                yield self._files[rel]

    def get(self, rel: str) -> Optional[SourceFile]:
        """The parsed file at ``rel``, or ``None`` when absent/unparsable."""
        return self._files.get(rel)

    def __len__(self) -> int:
        return len(self._files)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Project({str(self.package_root)!r}, files={len(self._files)})"
