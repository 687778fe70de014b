"""Answer collection on the querying side.

Answers are produced wherever a rewritten query's where clause becomes
equivalent to ``true`` and are shipped directly to the node that submitted
the input query.  The engine exposes them to library users through
:class:`QueryHandle`: one handle per submitted continuous query, accumulating
:class:`Answer` records as the simulation progresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Set, Tuple as TupleT

from repro.sql.ast import Query


@dataclass(frozen=True, slots=True)
class Answer:
    """One answer of a continuous query."""

    query_id: str
    values: TupleT[Any, ...]
    produced_at: float
    delivered_at: float
    producer: str


@dataclass
class QueryHandle:
    """The client-side view of a submitted continuous query."""

    query_id: str
    query: Query
    owner: str
    insertion_time: float
    answers: List[Answer] = field(default_factory=list)

    # ------------------------------------------------------------------
    # collection (used by the engine)
    # ------------------------------------------------------------------
    def add_answer(self, answer: Answer) -> None:
        """Record a delivered answer."""
        self.answers.append(answer)

    # ------------------------------------------------------------------
    # inspection (used by library users)
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of answers delivered so far."""
        return len(self.answers)

    def values(self) -> List[TupleT[Any, ...]]:
        """The answer value tuples, in delivery order (bag semantics)."""
        return [answer.values for answer in self.answers]

    def distinct_values(self) -> Set[TupleT[Any, ...]]:
        """The set of distinct answer value tuples."""
        return set(self.values())

    def latest(self) -> Optional[Answer]:
        """The most recently delivered answer, if any."""
        return self.answers[-1] if self.answers else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryHandle({self.query_id}, answers={self.count}, "
            f"query={self.query})"
        )
