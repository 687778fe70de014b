"""Answer collection on the querying side.

Answers are produced wherever a rewritten query's where clause becomes
equivalent to ``true`` and are shipped directly to the node that submitted
the input query.  The engine exposes them to library users through
:class:`QueryHandle`: one handle per submitted continuous query, whose
:class:`AnswerLog` accumulates the answers as the simulation progresses.
"""

from __future__ import annotations

import operator
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Union, overload
from typing import Tuple as TupleT

from repro.errors import AnswerIndexError
from repro.sql.ast import Query

Values = TupleT[Any, ...]
#: ``(produced_at, delivered_at, producer)``, one per delivered answer envelope.
Stamp = TupleT[float, float, str]
#: Distinct values an :class:`AnswerLog` shares at most.  Past it a new value
#: is kept as it came, so a log of all-distinct answers costs no more than a
#: list of :class:`Answer` would.
INTERNED_PER_LOG = 4096


@dataclass(frozen=True, slots=True)
class Answer:
    """One answer of a continuous query."""

    query_id: str
    values: TupleT[Any, ...]
    produced_at: float
    delivered_at: float
    producer: str


class AnswerLog(Sequence[Answer]):
    """The answers of one query, in delivery order, stored as columns.

    Answers go to one flat list of values.  Answers delivered one after the
    other with one stamp — a delivered group, and any group after it stamped
    alike — form a block, whose first position and stamp are kept once, in
    one column each.  Equal values share one tuple: the intern table holds
    at most one entry per distinct values tuple the log holds, and at most
    :data:`INTERNED_PER_LOG`, and is freed with the log, that is with its
    handle.  Reading an element builds its :class:`Answer`; :meth:`values`
    and ``len`` build none.
    """

    __slots__ = (
        "query_id",
        "_values",
        "_distinct",
        "_starts",
        "_produced",
        "_delivered",
        "_producers",
    )

    def __init__(self, query_id: str) -> None:
        self.query_id = query_id
        self._values: List[Values] = []
        self._distinct: Dict[Values, Values] = {}
        self._starts = array("q")
        self._produced = array("d")
        self._delivered = array("d")
        self._producers: List[str] = []

    def _stamp(self, block: int) -> Stamp:
        return self._produced[block], self._delivered[block], self._producers[block]

    def add(self, values: Values, stamp: Stamp) -> None:
        """Append one delivered answer."""
        if not self._producers or self._stamp(-1) != stamp:
            self._starts.append(len(self._values))
            self._produced.append(stamp[0])
            self._delivered.append(stamp[1])
            self._producers.append(stamp[2])
        try:
            shared = self._distinct.get(values)
            if shared is not None:
                values = shared
            elif len(self._distinct) < INTERNED_PER_LOG:
                self._distinct[values] = values
        except TypeError:  # an unhashable answer is kept as it came
            pass
        self._values.append(values)

    def __len__(self) -> int:
        return len(self._values)

    @overload
    def __getitem__(self, index: int) -> Answer: ...

    @overload
    def __getitem__(self, index: slice) -> List[Answer]: ...

    def __getitem__(self, index: Union[int, slice]) -> Union[Answer, List[Answer]]:
        size = len(self._values)
        if isinstance(index, slice):
            return [self[position] for position in range(*index.indices(size))]
        position = index + size if index < 0 else index
        if not 0 <= position < size:
            raise AnswerIndexError(f"answer {index} of {size}")
        stamp = self._stamp(bisect_right(self._starts, position) - 1)
        return Answer(self.query_id, self._values[position], *stamp)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (AnswerLog, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def values(self) -> List[Values]:
        """The answer value tuples, in delivery order (bag semantics)."""
        return list(self._values)


@dataclass
class QueryHandle:
    """The client-side view of a submitted continuous query."""

    query_id: str
    query: Query
    owner: str
    insertion_time: float
    answers: AnswerLog = field(init=False)

    def __post_init__(self) -> None:
        self.answers = AnswerLog(self.query_id)

    # ------------------------------------------------------------------
    # collection (used by the engine)
    # ------------------------------------------------------------------
    def add_answer(self, values: Values, stamp: Stamp) -> None:
        """Record a delivered answer."""
        self.answers.add(values, stamp)

    # ------------------------------------------------------------------
    # inspection (used by library users)
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of answers delivered so far."""
        return len(self.answers)

    def values(self) -> List[TupleT[Any, ...]]:
        """The answer value tuples, in delivery order (bag semantics)."""
        return self.answers.values()

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
