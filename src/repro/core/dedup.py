"""Duplicate elimination for DISTINCT queries (Section 4).

Under bag semantics RJoin may legitimately deliver the same answer values
more than once (Example 2 of the paper).  When the input query requests
``DISTINCT``, each node that stores a (rewritten) query applies the paper's
local rule: for a triggering tuple τ of relation ``R``, let ``A1 … Ak`` be
the attributes of ``R`` that appear in the select or where clause of the
stored query; the node keeps the projection ``π_{A1…Ak}(τ)`` and a new tuple
τ' may trigger the stored query only if its projection has not been seen
before.  The rule needs only local state and no extra messages.
"""

from __future__ import annotations

from typing import Any, List, Set, Tuple as TupleT

from repro.data.schema import RelationSchema
from repro.data.tuples import Tuple
from repro.sql.ast import Query


def projection_attributes(query: Query, relation: str) -> TupleT[str, ...]:
    """The attributes of ``relation`` appearing in the select or where clause."""
    attributes: List[str] = []
    seen: Set[str] = set()
    for ref in query.attribute_refs():
        if ref.relation == relation and ref.attribute not in seen:
            seen.add(ref.attribute)
            attributes.append(ref.attribute)
    return tuple(sorted(attributes))


def project(
    query: Query, tup: Tuple, schema: RelationSchema
) -> TupleT[TupleT[str, Any], ...]:
    """The projection of ``tup`` on the attributes relevant to ``query``."""
    attributes = projection_attributes(query, tup.relation)
    return tuple((attr, tup.value_of(attr, schema)) for attr in attributes)


class ProjectionTracker:
    """Per-stored-query memory of the projections that already triggered it."""

    __slots__ = ("_seen",)

    def __init__(self) -> None:
        self._seen: Set[TupleT[TupleT[str, Any], ...]] = set()

    def admit_and_record(
        self, query: Query, tup: Tuple, schema: RelationSchema
    ) -> bool:
        """Atomically check and record; returns whether the tuple was admitted."""
        projection = project(query, tup, schema)
        if projection in self._seen:
            return False
        self._seen.add(projection)
        return True

    def __len__(self) -> int:
        return len(self._seen)
