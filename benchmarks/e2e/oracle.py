"""The benchmark's own correctness oracle: a windowed multi-way hash join.

Independent of :mod:`repro.core`: it reads only the parsed queries, the
catalog and the published rows.  A combination of one tuple per relation is
an answer of a ``WINDOW W TUPLES`` query iff every join predicate holds and
``max(seq) - min(seq) + 1 <= W`` (``seq`` = 1-based publication order).  The
tuple that completes a combination is its newest, so processing the stream
in order and joining each new tuple against the ``W - 1`` tuples before it
enumerates every answer exactly once — in time proportional to the output,
which is what lets it check streams that
:class:`repro.core.reference.ReferenceEngine` (a cross product per tuple,
no window pruning) cannot; the self-tests cross-check the two on a prefix.
"""

from __future__ import annotations

import hashlib
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Sequence, Tuple

from repro.data.schema import Catalog
from repro.sql.ast import Query

Row = Tuple[str, Tuple[int, ...]]
AnswerBag = Counter  # answer values -> multiplicity


@dataclass(frozen=True)
class _Step:
    """Bind one more relation through a hash lookup on a join predicate."""

    relation: str
    position: int            # attribute position probed in ``relation``
    bound_relation: str      # already bound relation supplying the value
    bound_position: int
    #: Further predicates between ``relation`` and bound relations:
    #: ``(position in relation, bound relation, bound position)``.
    checks: Tuple[Tuple[int, str, int], ...]


def _plan(query: Query, start: str, catalog: Catalog) -> List[_Step]:
    """Order in which the other relations are bound, starting from ``start``."""
    def position(ref) -> int:
        return catalog.get(ref.relation).attributes.index(ref.attribute)

    edges = [
        (jp.left.relation, position(jp.left), jp.right.relation, position(jp.right))
        for jp in query.join_predicates
    ]
    bound = {start}
    steps: List[_Step] = []
    while len(bound) < len(query.relations):
        usable = []
        for left, left_pos, right, right_pos in edges:
            if left in bound and right not in bound:
                usable.append((right, right_pos, left, left_pos))
            elif right in bound and left not in bound:
                usable.append((left, left_pos, right, right_pos))
        if not usable:
            raise ValueError(f"join graph of {query} is not connected")
        relation = usable[0][0]
        first, *rest = [edge for edge in usable if edge[0] == relation]
        steps.append(
            _Step(
                relation=relation,
                position=first[1],
                bound_relation=first[2],
                bound_position=first[3],
                checks=tuple((pos, rel, rel_pos) for _, pos, rel, rel_pos in rest),
            )
        )
        bound.add(relation)
    return steps


def expected_answers(
    catalog: Catalog, queries: Sequence[Query], rows: Sequence[Row], window: int
) -> List[AnswerBag]:
    """The answer multiset of every query after ``rows`` were published in order."""
    projections = []
    plans: Dict[str, List[Tuple[int, List[_Step]]]] = defaultdict(list)
    indexed = set()  # (relation, position) pairs some plan probes
    for number, query in enumerate(queries):
        if query.selection_predicates or query.distinct:
            raise ValueError("the oracle covers plain equi-join queries only")
        projections.append(
            [
                (item.relation, catalog.get(item.relation).attributes.index(item.attribute))
                for item in query.select_items
            ]
        )
        for relation in query.relations:
            steps = _plan(query, relation, catalog)
            plans[relation].append((number, steps))
            indexed.update((step.relation, step.position) for step in steps)

    positions_of: Dict[str, List[int]] = defaultdict(list)
    for relation, position in sorted(indexed):
        positions_of[relation].append(position)
    # (relation, position, value) -> values of the live tuples, oldest first.
    index: Dict[Tuple[str, int, int], Deque[Tuple[int, ...]]] = defaultdict(deque)
    live: Deque[Row] = deque()  # the last ``window - 1`` rows
    bags: List[AnswerBag] = [Counter() for _ in queries]

    def extend(binding: Dict[str, Tuple[int, ...]], steps: List[_Step], at: int,
               number: int) -> None:
        if at == len(steps):
            bags[number][
                tuple(binding[rel][pos] for rel, pos in projections[number])
            ] += 1
            return
        step = steps[at]
        key = (step.relation, step.position,
               binding[step.bound_relation][step.bound_position])
        for values in index.get(key, ()):
            if all(values[pos] == binding[rel][rel_pos]
                   for pos, rel, rel_pos in step.checks):
                binding[step.relation] = values
                extend(binding, steps, at + 1, number)
        binding.pop(step.relation, None)

    for relation, values in rows:
        for number, steps in plans[relation]:
            extend({relation: values}, steps, 0, number)
        live.append((relation, values))
        for position in positions_of[relation]:
            index[(relation, position, values[position])].append(values)
        if len(live) > window - 1:
            old_relation, old_values = live.popleft()
            for position in positions_of[old_relation]:
                key = (old_relation, position, old_values[position])
                index[key].popleft()
                if not index[key]:
                    del index[key]
    return bags


def digest(bags: Sequence[AnswerBag]) -> str:
    """Order-insensitive digest of per-query answer multisets."""
    sha = hashlib.sha256()
    for number, bag in enumerate(bags):
        for values, count in sorted(bag.items()):
            sha.update(f"{number}|{values}|{count}\n".encode())
    return sha.hexdigest()


def compare(expected: Sequence[AnswerBag], got: Sequence[AnswerBag]) -> Tuple[int, int, int]:
    """``(expected, missing, spurious)`` answer counts, summed over queries."""
    total = missing = spurious = 0
    for want, have in zip(expected, got):
        total += sum(want.values())
        missing += sum((want - have).values())
        spurious += sum((have - want).values())
    return total, missing, spurious
