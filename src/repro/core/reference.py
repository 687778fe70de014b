"""Centralised continuous-join oracle.

The reference engine evaluates continuous multi-way equi-joins exactly as
Definition 1 (bag semantics) and Definition 2 (new answers / set semantics)
of the paper prescribe, but in a single process with global knowledge:

* all published tuples are kept in one table per relation,
* when a tuple ``t`` is published, every query submitted at or before
  ``pubT(t)`` receives the *new* answers that involve ``t`` — combinations of
  ``t`` with previously published tuples (one per other relation, each
  published at or after the query's insertion time), satisfying every join
  and selection predicate and, for window queries, fitting inside the
  sliding window,
* ``DISTINCT`` queries deduplicate their answer values.

It exists purely for validation: integration and property-based tests check
that the distributed RJoin engine delivers exactly the same bag (or set) of
answers on delay-free runs, which is the paper's soundness + eventual
completeness + no-accidental-duplicates claim (Theorems 1 and 2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple as TupleT

from repro.core.windows import combination_valid
from repro.data.schema import AttributeRef, Catalog
from repro.data.tuples import Tuple
from repro.errors import EngineError, UnknownRelationError
from repro.sql.ast import Constant, Query


@dataclass
class _RegisteredQuery:
    query_id: str
    query: Query
    insertion_time: float
    answers: List[TupleT[Any, ...]] = field(default_factory=list)
    seen: Set[TupleT[Any, ...]] = field(default_factory=set)


class ReferenceEngine:
    """A single-node oracle for continuous multi-way equi-join semantics."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self._queries: Dict[str, _RegisteredQuery] = {}
        #: Removed queries, kept so their answer history stays inspectable
        #: (mirrors the engine: a retracted query's handle retains the
        #: answers delivered before the retraction).
        self._removed: Dict[str, _RegisteredQuery] = {}
        self._tuples: Dict[str, List[Tuple]] = {}
        self._sequence = 0
        #: Queries ever submitted: the number of a default id.
        self._submitted = 0

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def submit(
        self, query: Query, query_id: Optional[str] = None, insertion_time: float = 0.0
    ) -> str:
        """Register a continuous query; returns its id."""
        query.validate(self.catalog)
        self._submitted += 1
        if query_id is None:
            query_id = f"ref#{self._submitted}"
        if query_id in self._queries:
            raise EngineError(f"duplicate query id {query_id!r}")
        self._queries[query_id] = _RegisteredQuery(
            query_id=query_id, query=query, insertion_time=insertion_time
        )
        return query_id

    def remove_query(self, query_id: str) -> None:
        """Retract a continuous query: later publications produce no answers.

        Mirrors :meth:`repro.core.engine.RJoinEngine.remove_query` so that
        oracle-equality tests hold across removals; the answers produced
        before the retraction remain available through :meth:`answers`.
        """
        try:
            self._removed[query_id] = self._queries.pop(query_id)
        except KeyError:
            raise EngineError(
                f"unknown (or already removed) query id {query_id!r}"
            ) from None

    # ------------------------------------------------------------------
    # publication
    # ------------------------------------------------------------------
    def publish(
        self,
        relation: str,
        values: Sequence[Any],
        pub_time: Optional[float] = None,
        sequence: Optional[int] = None,
    ) -> Dict[str, List[TupleT[Any, ...]]]:
        """Publish a tuple and return the new answers it produces per query id."""
        if relation not in self.catalog:
            raise UnknownRelationError(f"unknown relation {relation!r}")
        schema = self.catalog.get(relation)
        self._sequence += 1
        tup = Tuple.from_schema(
            schema,
            values,
            pub_time=self._sequence if pub_time is None else pub_time,
            sequence=self._sequence if sequence is None else sequence,
        )
        return self.publish_tuple(tup)

    def publish_tuple(self, tup: Tuple) -> Dict[str, List[TupleT[Any, ...]]]:
        """Publish an already constructed tuple (pub_time/sequence preserved)."""
        produced: Dict[str, List[TupleT[Any, ...]]] = {}
        for registered in self._queries.values():
            new_answers = self._new_answers_for(registered, tup)
            if new_answers:
                produced[registered.query_id] = new_answers
                registered.answers.extend(new_answers)
        # Store the tuple only after computing the new answers so that the
        # combinations never use the new tuple twice.
        self._tuples.setdefault(tup.relation, []).append(tup)
        return produced

    # ------------------------------------------------------------------
    # answers
    # ------------------------------------------------------------------
    def answers(self, query_id: str) -> List[TupleT[Any, ...]]:
        """All answers produced for ``query_id`` so far (bag or set order-insensitive).

        Removed queries keep their pre-retraction answer history.
        """
        registered = self._queries.get(query_id) or self._removed.get(query_id)
        if registered is None:
            raise EngineError(f"unknown query id {query_id!r}")
        return list(registered.answers)

    def answer_count(self, query_id: str) -> int:
        """Number of answers produced for ``query_id``."""
        return len(self.answers(query_id))

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def _new_answers_for(
        self, registered: _RegisteredQuery, tup: Tuple
    ) -> List[TupleT[Any, ...]]:
        query = registered.query
        if tup.relation not in query.relations:
            return []
        if tup.pub_time < registered.insertion_time:
            return []

        # Candidate tuples per relation: the new tuple for its own relation,
        # previously published tuples (>= insertion time) for the others.
        per_relation: List[List[Tuple]] = []
        for relation in query.relations:
            if relation == tup.relation:
                per_relation.append([tup])
                continue
            stored = [
                candidate
                for candidate in self._tuples.get(relation, [])
                if candidate.pub_time >= registered.insertion_time
            ]
            if not stored:
                return []
            per_relation.append(stored)

        answers: List[TupleT[Any, ...]] = []
        for combination in itertools.product(*per_relation):
            by_relation = {t.relation: t for t in combination}
            if not self._satisfies(query, by_relation):
                continue
            if query.window is not None:
                clocks = tuple(
                    query.window.clock_of(t) for t in combination
                )
                if not combination_valid(query.window, clocks):
                    continue
            values = self._project(query, by_relation)
            if query.distinct:
                if values in registered.seen:
                    continue
                registered.seen.add(values)
            answers.append(values)
        return answers

    def _satisfies(self, query: Query, by_relation: Dict[str, Tuple]) -> bool:
        for jp in query.join_predicates:
            left = self._value_of(jp.left, by_relation)
            right = self._value_of(jp.right, by_relation)
            if left != right:
                return False
        for sp in query.selection_predicates:
            if self._value_of(sp.attribute, by_relation) != sp.value:
                return False
        return True

    def _project(
        self, query: Query, by_relation: Dict[str, Tuple]
    ) -> TupleT[Any, ...]:
        values: List[Any] = []
        for item in query.select_items:
            if isinstance(item, Constant):
                values.append(item.value)
            else:
                values.append(self._value_of(item, by_relation))
        return tuple(values)

    def _value_of(self, ref: AttributeRef, by_relation: Dict[str, Tuple]) -> Any:
        schema = self.catalog.get(ref.relation)
        return by_relation[ref.relation].value_of(ref.attribute, schema)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def published_tuples(self) -> int:
        """Number of tuples published so far."""
        return sum(len(tuples) for tuples in self._tuples.values())

    @property
    def registered_queries(self) -> int:
        """Number of registered continuous queries."""
        return len(self._queries)
