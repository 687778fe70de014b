"""Command-line interface: ``python -m repro.analysis check``.

Exit codes: ``0`` — every checked invariant holds; ``1`` — at least one
finding; ``2`` — the analyzer itself was driven with invalid inputs (an
unreadable tree).

Output formats:

* ``text`` (default) — one ``path:line: [rule] message`` per finding,
* ``json`` — a machine-readable document (see
  :meth:`~repro.analysis.driver.AnalysisReport.to_dict`),
* ``github`` — GitHub Actions workflow commands, so CI failures annotate
  the offending file and line in the diff view.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.driver import AnalysisReport, analyze
from repro.analysis.project import default_package_root
from repro.analysis.rules import ALL_RULES
from repro.errors import AnalysisError

#: Where the analyzed package lives in the repository, prefixed to finding
#: paths in ``github`` annotations so they land on the right file.
GITHUB_PATH_PREFIX = "src/repro"


def render(report: AnalysisReport, fmt: str) -> str:
    """The report in output format ``fmt`` (``text`` / ``json`` / ``github``)."""
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2)
    if fmt == "github":
        lines = [
            f"::error file={GITHUB_PATH_PREFIX}/{f.path},line={f.line},"
            f"title=repro-lint {f.rule}::" + f.message.replace("\n", " ")
            for f in report.findings
        ]
    else:
        lines = [f.render() for f in report.findings]
    lines.append(
        f"repro-lint: {report.files_analyzed} files, "
        f"{len(report.rules_run)} rules, {len(report.findings)} finding(s)"
    )
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST-based invariant checks for the repro engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run every rule over a source tree")
    check.add_argument(
        "path",
        nargs="?",
        default=None,
        help=(
            "package root to analyze (a directory laid out like the repro "
            "package); defaults to the installed repro package itself"
        ),
    )
    check.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="output format (default: text)",
    )
    sub.add_parser("list", help="list the shipped rules")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for rule in ALL_RULES:
            print(f"{rule.name}: {rule.description}")
        return 0
    root = Path(args.path) if args.path is not None else default_package_root()
    try:
        report = analyze(root)
    except AnalysisError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2
    print(render(report, args.format))
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
