"""``python -m repro`` — the umbrella command-line entry point.

Dispatches to the existing sub-CLIs without re-implementing them::

    python -m repro experiments run baseline --out results/
    python -m repro experiments list
    python -m repro analysis check
    python -m repro obs summarize trace.jsonl

The direct module invocations (``python -m repro.experiments``,
``python -m repro.analysis``, ``python -m repro.obs``) keep working
unchanged; the umbrella just strips its subcommand and forwards the
remaining arguments verbatim.
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence

#: Subcommand name → ``main(argv)``-style callable, resolved lazily so the
#: umbrella stays importable even when a subsystem's heavier dependencies
#: are unavailable in a trimmed environment.
_SUBCOMMANDS = ("experiments", "analysis", "obs")

_USAGE = """\
usage: python -m repro <command> [args...]

commands:
  experiments   scenario-grid runner (run / list / report); see
                `python -m repro experiments --help`
  analysis      in-tree static analysis (check / list); see
                `python -m repro analysis --help`
  obs           trace-file inspection (summarize / convert); see
                `python -m repro obs --help`
"""


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Dispatch ``repro <subcommand> args...`` to the matching sub-CLI."""
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0] in ("-h", "--help"):
        print(_USAGE, end="")
        return 0 if args else 2
    command, rest = args[0], args[1:]
    if command == "experiments":
        from repro.experiments.cli import main as experiments_main

        return experiments_main(rest)
    if command == "analysis":
        from repro.analysis.cli import main as analysis_main

        return analysis_main(rest)
    if command == "obs":
        from repro.obs.cli import main as obs_main

        return obs_main(rest)
    known = ", ".join(_SUBCOMMANDS)
    print(
        f"unknown command {command!r}; known commands: {known}",
        file=sys.stderr,
    )
    print(_USAGE, end="", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
