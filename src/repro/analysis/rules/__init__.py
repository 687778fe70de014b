"""Rule registry of the static-analysis suite.

Adding a rule: subclass :class:`repro.analysis.base.Rule` in a module next
to the existing ones, give it a unique ``name``, and list an instance in
:data:`ALL_RULES` below — ``python -m repro.analysis check`` picks it up,
``--rules`` can select it, and allowlist comments address it by name.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.analysis.base import Rule
from repro.analysis.rules.annotations import AnnotationCompletenessRule
from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.exceptions import ExceptionDisciplineRule
from repro.analysis.rules.protocol import ProtocolRule

#: Every shipped rule, in report order.
ALL_RULES: Tuple[Rule, ...] = (
    DeterminismRule(),
    ProtocolRule(),
    ExceptionDisciplineRule(),
    AnnotationCompletenessRule(),
)


def rules_by_name() -> Dict[str, Rule]:
    """``rule id -> rule instance`` for every shipped rule."""
    return {rule.name: rule for rule in ALL_RULES}
