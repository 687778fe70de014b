"""RJoin — the paper's primary contribution.

The core package implements the recursive join algorithm of Sections 3–7:

* :mod:`repro.core.keys` — attribute-level and value-level indexing keys,
* :mod:`repro.core.rewriting` — incremental query rewriting (tuple ⨝ query),
* :mod:`repro.core.windows` — sliding-window validity and garbage collection,
* :mod:`repro.core.dedup` — DISTINCT / set-semantics projection tracking,
* :mod:`repro.core.altt` — attribute-level tuple table (Section 4): a
  memory tuple store that keeps what a node received for Δ,
* :mod:`repro.core.ric` — rate-of-incoming-tuples bookkeeping, candidate
  table and piggy-backing,
* :mod:`repro.core.strategy` — indexing-candidate enumeration and the
  RJoin / Random / Worst / First strategies,
* :mod:`repro.core.protocol` — the wire messages (newTuple, Eval, RIC, ...),
* :mod:`repro.core.node` — the per-node protocol handlers (Procedures 1–3),
* :mod:`repro.core.membership` — ownership deltas and state re-homing for
  dynamic ring membership (join / graceful leave / crash / id movement),
* :mod:`repro.core.engine` — the public engine facade,
* :mod:`repro.core.reference` — the centralised continuous-join oracle used
  to validate soundness, completeness and duplicate-freedom.
"""

from repro.core.answers import Answer, QueryHandle
from repro.core.config import RJoinConfig
from repro.core.engine import RJoinEngine
from repro.core.membership import MembershipManager
from repro.core.reference import ReferenceEngine
from repro.core.strategy import (
    FirstCandidateStrategy,
    IndexingStrategy,
    RJoinStrategy,
    RandomStrategy,
    WorstStrategy,
    make_strategy,
)

__all__ = [
    "Answer",
    "FirstCandidateStrategy",
    "IndexingStrategy",
    "MembershipManager",
    "QueryHandle",
    "RJoinConfig",
    "RJoinEngine",
    "RJoinStrategy",
    "RandomStrategy",
    "ReferenceEngine",
    "WorstStrategy",
    "make_strategy",
]
