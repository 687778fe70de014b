"""Rule registry of the static-analysis suite.

Adding a rule: subclass :class:`repro.analysis.base.Rule` in a module next
to the existing ones, give it a unique ``name``, and list an instance in
:data:`ALL_RULES` below — ``python -m repro.analysis check`` picks it up.
A rule earns its place only if tier-1, ruff and mypy would all miss what it
catches; an exemption from it is written into the rule's own code.
"""

from __future__ import annotations

from typing import Tuple

from repro.analysis.base import Rule
from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.exceptions import ExceptionDisciplineRule

#: Every shipped rule, in report order.
ALL_RULES: Tuple[Rule, ...] = (
    DeterminismRule(),
    ExceptionDisciplineRule(),
)
