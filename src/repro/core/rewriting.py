"""Incremental query rewriting (Section 3).

When a tuple ``t`` of relation ``R`` triggers a (possibly already rewritten)
query ``q``, RJoin rewrites ``q`` into a new query ``q'`` that reflects the
fact that ``t`` has arrived:

* every reference to an attribute of ``R`` in the select list is replaced by
  the corresponding value of ``t``,
* every join predicate involving ``R`` becomes a selection on the other side
  (``R.A = S.B`` with ``t.A = 3`` becomes ``3 = S.B``),
* every selection on ``R`` is checked against ``t``: if satisfied it is
  dropped, if violated the rewrite is *dead* — the combination of tuples it
  represents can never produce an answer, so no new query is created,
* ``R`` is removed from the FROM clause.

A rewritten query whose where clause became equivalent to ``true`` (no
relations, no predicates, only constants in the select list) is an *answer*
of the original query.

Everything in that list except the values is the same for every tuple of
``R`` — and for every query that differs from ``q`` only in its constants —
so a rewrite is *compile + apply*: :func:`compile_plan` works out the
:class:`TriggerPlan` of ``(shape of q, R)`` once, :meth:`TriggerPlan.apply`
runs it on a query's constants and a tuple's values by position.
:func:`rewrite_query` does both.  The nodes' trigger path keeps what it
compiles in the :class:`QueryShape` every query state carries, so each
shape is compiled once per engine, not once per node or per query.  An
engine's plans also share its :class:`RewriteMemo`, so one (query, tuple
values) pair is rewritten once while it keeps recurring.
"""

from __future__ import annotations

from operator import itemgetter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Tuple as TupleT,
)

from repro.core.strategy import CandidatePlan
from repro.data.schema import AttributeRef, RelationSchema
from repro.data.tuples import Tuple
from repro.errors import RewriteError, SchemaError
from repro.sql.ast import (
    Constant,
    JoinPredicate,
    Query,
    SelectionPredicate,
    trusted_constant,
    trusted_query,
    trusted_selection,
)
from repro.sql.predicates import is_contradictory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.keys import IndexKey
    from repro.core.protocol import QueryState

#: Entries one generation of a :class:`RewriteMemo` holds; a memo holds two.
MEMO_GENERATION = 2048
#: Bits of a :class:`RewriteMemo`'s admission bitmap (64 KB).
MEMO_SEEN_BITS = 1 << 19
#: Rewrites a :class:`RewriteMemo` leaves to :meth:`TriggerPlan.rewrite`
#: after :data:`MEMO_GENERATION` misses brought fewer than a quarter as
#: many hits.
MEMO_PAUSE = 8 * MEMO_GENERATION


class RewriteResult:
    """Outcome of one rewrite step.

    Exactly one of ``dead`` / ``complete`` / :attr:`alive` holds.  A complete
    result carries the answer ``values`` themselves; the rewritten
    :class:`Query` such an answer stands for (no relations, no predicates,
    constants only) is materialised the first time :attr:`query` is read,
    which the trigger path of :class:`~repro.core.node.RJoinNode` never does.
    ``candidates`` is where that trigger path keeps the Section 6 candidates
    of an alive result's query, so a result a :class:`RewriteMemo` hands out
    again is enumerated once.
    """

    __slots__ = ("dead", "complete", "values", "candidates", "_query", "_source")

    def __init__(
        self,
        query: Optional[Query] = None,
        dead: bool = False,
        complete: bool = False,
        values: Optional[TupleT[Any, ...]] = None,
        source: Optional[Query] = None,
    ) -> None:
        self.dead = dead
        self.complete = complete
        #: Answer values of a complete result, else None.
        self.values = values
        self.candidates: Optional[TupleT["IndexKey", ...]] = None
        self._query = query
        #: The query this result was rewritten from: what a complete
        #: result's :attr:`query` is built from, and what keeps the ``id`` a
        #: :class:`RewriteMemo` key holds from being reused.
        self._source = source

    @property
    def alive(self) -> bool:
        """Whether a (non-answer) rewritten query was produced."""
        return not self.dead and not self.complete

    @property
    def query(self) -> Optional[Query]:
        """The rewritten query; None when the rewrite is dead."""
        source = self._source
        if self._query is None and self.complete and source is not None:
            self._query = Query(
                select_items=tuple(Constant(value) for value in self.values or ()),
                relations=(),
                distinct=source.distinct,
                window=source.window,
            )
        return self._query

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "dead" if self.dead else "complete" if self.complete else "alive"
        return f"RewriteResult({kind}, {self.query})"


DEAD = RewriteResult(dead=True)


class RewriteMemo:
    """The rewrites of one engine, each computed once while it recurs.

    A key is ``(plan, id(query), *the tuple's values at the positions the
    plan reads)`` — everything :meth:`TriggerPlan.apply` reads — and its
    entry is the :class:`RewriteResult` itself, which holds the query it was
    rewritten from, so that ``id`` is not reused while the entry lives.
    Equal rewrites thus share one result: one child :class:`Query`, one
    answer-values tuple, one candidate tuple — and the children's own
    rewrites share keys in turn.  Values are compared by ``==``, as
    everywhere else in the engine.

    Bounded: two generations of at most :data:`MEMO_GENERATION` entries; a
    hit in the old one moves to the young one, and a full young generation
    becomes the old one, dropping what the old one still held.  A key is
    admitted the second time it is missed: the first miss only sets a bit
    of a :data:`MEMO_SEEN_BITS`-bit map, indexed by the key's hash and
    zeroed once a sixteenth of its bits were set, so a rewrite that never
    recurs leaves no object behind (an old entry whose bit was zeroed is
    recomputed once more before it hits).  The engine owns its memo, hands
    it to every :class:`QueryShape` it creates, and empties it when a query
    is removed and when it closes.

    A lookup costs a key and a probe, which a hit repays and a miss does
    not.  So the memo counts its hits, and when :data:`MEMO_GENERATION`
    misses brought fewer than a quarter as many, the next
    :data:`MEMO_PAUSE` rewrites skip it (``paused``) — a workload whose
    rewrites rarely repeat pays for a sample of its lookups, not for all.
    """

    __slots__ = ("young", "old", "_seen", "_marks", "hits", "misses", "paused")

    def __init__(self) -> None:
        self.clear()

    def __len__(self) -> int:
        return len(self.young) + len(self.old)

    def clear(self) -> None:
        """Forget every entry and every key seen."""
        self.young: Dict[Hashable, RewriteResult] = {}
        self.old: Dict[Hashable, RewriteResult] = {}
        self._seen = bytearray(MEMO_SEEN_BITS >> 3)
        self._marks = 0
        self.hits = 0
        self.misses = 0
        self.paused = 0

    def miss(
        self, key: Hashable, plan: "TriggerPlan", query: Query, vals: TupleT[Any, ...]
    ) -> RewriteResult:
        """The result of ``key``, which the young generation does not hold."""
        self.misses += 1
        if self.misses == MEMO_GENERATION:
            if 4 * self.hits < MEMO_GENERATION:
                self.paused = MEMO_PAUSE
            self.hits = self.misses = 0
        bit = hash(key) & (MEMO_SEEN_BITS - 1)
        flag = 1 << (bit & 7)
        seen = self._seen
        if not seen[bit >> 3] & flag:  # first sight, or its bit was zeroed
            seen[bit >> 3] |= flag
            self._marks += 1
            if self._marks == MEMO_SEEN_BITS >> 4:
                self._seen = bytearray(MEMO_SEEN_BITS >> 3)
                self._marks = 0
            return plan.rewrite(query, vals)
        result = self.old.pop(key, None)
        if result is None:
            result = plan.rewrite(query, vals)
            if result is DEAD:
                result = RewriteResult(dead=True, source=query)
        young = self.young
        if len(young) >= MEMO_GENERATION:
            self.old = young
            young = self.young = {}
        young[key] = result
        return result


def canonical_state_key(
    state: "QueryState", tied: Optional[Callable[[float], bool]] = None
) -> Optional[Hashable]:
    """The cheap part of a state's sharing identity (None: do not share).

    Two states represent exactly the same residual evaluation work — and
    multi-query sharing stores one physical record for both, fanning answers
    out to every subscriber — when they agree on this key *and* their
    rewritten queries are equal.  The key is everything but the query:
    insertion time, the window's ``min_clock`` and ``max_clock`` over the
    consumed tuples (both None without a window), input flag and rewrite
    depth — plain floats, ints and flags, so hashing it runs no Python code.
    The query table compares queries only among records that share the key
    (:meth:`~repro.core.query_table.QueryTable.find_share_host`).

    A state that can have no twin gets no key, so it costs no lookup and no
    sharing-index entry.  Every state of a query carries the query's
    insertion time, and under a ``TUPLES`` window the clocks of at most two
    consumed tuples name them (a tuple's clock is its publication number,
    and FROM lists no relation twice).  Such a state can only equal a state
    of another input query with its insertion time: ``tied(insertion_time)``
    says whether one lives or may still be submitted.  Without ``tied``
    every such state gets its key.  With no window, a ``TIME`` window (one
    ``publish_batch`` gives its tuples one ``pub_time``) or three or more
    tuples consumed (the clocks do not name the middle ones), one query's
    own states may be equal, and the key is always given.

    DISTINCT queries are not shared: they carry a mutating per-record
    projection tracker whose merge semantics are not order-independent.
    """
    if state.distinct:
        return None
    spec = state.query.window
    if (
        tied is not None
        and spec is not None
        and spec.mode == "tuples"
        and state.consumed < 3
        and not tied(state.insertion_time)
    ):
        return None
    window = state.window_state
    if window is None:
        return (state.insertion_time, None, None, state.is_input, state.consumed)
    return (
        state.insertion_time,
        window.min_clock,
        window.max_clock,
        state.is_input,
        state.consumed,
    )


class TriggerPlan:
    """What rewriting a query by a tuple of one relation does, values aside.

    Which selections to check and at which tuple position, which joins turn
    into selections on which other attribute, where the select list takes
    tuple values, what remains of FROM and WHERE, and whether the result is
    an answer are fixed by the query's *shape* (:func:`shape_key`: the query
    with its constants blanked) and the relation.  The plan holds positions
    and indexes only — :meth:`apply` reads the tuple's values and the
    query's constants through them — so every query of one shape can share
    one plan, however many stored copies with different constants exist.
    """

    __slots__ = (
        "relation",
        "arity",
        "checks",
        "kept",
        "recheck",
        "self_joins",
        "bindings",
        "kept_joins",
        "relations",
        "fills",
        "complete",
        "child_shape",
        "memo",
        "reads",
    )

    def __init__(
        self,
        query: Query,
        relation: str,
        schema: RelationSchema,
        memo: Optional[RewriteMemo] = None,
    ) -> None:
        position_of = schema.position_of
        selections = query.selection_predicates
        self.relation = relation
        self.arity = schema.arity
        #: The engine's memo :meth:`apply` looks results up in, if any.
        self.memo = memo
        #: The shape of every live rewrite this plan produces: which
        #: selections, joins and select items a child keeps or gains does not
        #: depend on the tuple's values.
        self.child_shape = QueryShape(memo)
        #: ``(tuple position, selection index)`` per selection on the
        #: consumed relation: the tuple must carry that selection's constant.
        self.checks: TupleT[TupleT[int, int], ...] = tuple(
            (position_of(sp.attribute.attribute), index)
            for index, sp in enumerate(selections)
            if sp.attribute.relation == relation
        )
        #: Indexes of the selections on other relations, which stay.
        self.kept: TupleT[int, ...] = tuple(
            index
            for index, sp in enumerate(selections)
            if sp.attribute.relation != relation
        )
        pinned = {selections[index].attribute: index for index in self.kept}
        #: Some attribute has two kept selections; if their constants differ
        #: no tuple can make the rewrite anything but dead.
        self.recheck = len(pinned) < len(self.kept)
        kept_joins: List[JoinPredicate] = []
        self_joins: List[TupleT[int, int]] = []
        #: ``(other attribute, tuple position, twin, pin)`` per join with the
        #: consumed relation, in join order: the join becomes the selection
        #: ``other = tuple value`` unless something constrains ``other``
        #: already — the kept selection of index ``pin`` or the earlier
        #: binding reading tuple position ``twin`` (-1: none) — in which case
        #: the values must agree.
        bindings: List[TupleT[AttributeRef, int, int, int]] = []
        first_binding: Dict[AttributeRef, int] = {}
        for jp in query.join_predicates:
            if not jp.references(relation):
                kept_joins.append(jp)
                continue
            other = jp.other_side(relation)
            own = position_of(jp.side_for(relation).attribute)
            if other.relation == relation:
                # Self-join predicate (not produced by the parser, but handle
                # it): both sides are bound by the tuple, so evaluate it.
                self_joins.append((own, position_of(other.attribute)))
                continue
            bindings.append(
                (other, own, first_binding.get(other, -1), pinned.get(other, -1))
            )
            first_binding.setdefault(other, own)
        self.self_joins = tuple(self_joins)
        self.bindings = tuple(bindings)
        self.kept_joins = tuple(kept_joins)
        self.relations = tuple(rel for rel in query.relations if rel != relation)
        #: Per select item: the tuple position it takes its value from, or -1
        #: for an item the rewrite leaves as it is.
        self.fills: TupleT[int, ...] = tuple(
            position_of(item.attribute)
            if isinstance(item, AttributeRef) and item.relation == relation
            else -1
            for item in query.select_items
        )
        #: Nothing left to join or select and a select list of constants:
        #: every live rewrite is an answer.
        self.complete = (
            not self.relations
            and not self.kept_joins
            and not self.kept
            and not self.bindings
            and all(
                position >= 0 or isinstance(item, Constant)
                for position, item in zip(self.fills, query.select_items)
            )
        )
        read = {position for position, _ in self.checks}
        read.update(position for pair in self.self_joins for position in pair)
        read.update(position for _, position, _, _ in self.bindings)
        read.update(position for position in self.fills if position >= 0)
        positions = sorted(read)
        first = positions[0] if positions else 0
        #: The tuple values a rewrite reads, as a tuple (a slice when there
        #: are fewer than two): the tail of its memo key.
        self.reads = (
            itemgetter(*positions)
            if len(positions) > 1
            else itemgetter(slice(first, first + len(positions)))
        )

    def apply(self, query: Query, tup: Tuple) -> RewriteResult:
        """One rewrite step: ``query`` (of this plan's shape) consumed ``tup``."""
        vals = tup.values
        if len(vals) != self.arity:
            raise SchemaError(
                f"tuple arity {len(vals)} does not match schema "
                f"{self.relation!r} arity {self.arity}"
            )
        memo = self.memo
        if memo is None:
            return self.rewrite(query, vals)
        if memo.paused:
            memo.paused -= 1
            return self.rewrite(query, vals)
        key = (self, id(query)) + self.reads(vals)
        try:
            result = memo.young.get(key)
        except TypeError:  # an unhashable value: nothing to key it by
            return self.rewrite(query, vals)
        if result is None:
            return memo.miss(key, self, query, vals)
        memo.hits += 1
        return result

    def rewrite(self, query: Query, vals: TupleT[Any, ...]) -> RewriteResult:
        """:meth:`apply` without the memo, on values of the plan's arity."""
        # Selections on the consumed relation must be satisfied.
        stated = query.selection_predicates
        for position, index in self.checks:
            if vals[position] != stated[index].value:
                return DEAD
        for left, right in self.self_joins:
            if vals[left] != vals[right]:
                return DEAD
        if self.complete:
            # An answer: every select item the tuple does not fill is a
            # Constant already.
            values = [
                item.value  # type: ignore[union-attr]
                if position < 0
                else vals[position]
                for position, item in zip(self.fills, query.select_items)
            ]
            return RewriteResult(complete=True, values=tuple(values), source=query)
        # Joins with the consumed relation become selections on the other
        # side; one that restates a selection is dropped, one that
        # contradicts it (two different constants required of the same
        # attribute can never be satisfied) kills the rewrite.
        selections = [stated[index] for index in self.kept]
        if self.recheck and is_contradictory(selections):
            return DEAD
        for other, position, twin, pin in self.bindings:
            value = vals[position]
            if pin >= 0:
                if value != stated[pin].value:
                    return DEAD
            elif twin >= 0:
                if value != vals[twin]:
                    return DEAD
            else:
                selections.append(trusted_selection(other, value))
        # The tuple's values enter the select list; its relation leaves FROM.
        # Every part comes from ``query``, a valid query, so the child is
        # built with the trusted constructors.
        return RewriteResult(
            trusted_query(
                tuple(
                    [
                        item if position < 0 else trusted_constant(vals[position])
                        for position, item in zip(self.fills, query.select_items)
                    ]
                ),
                self.relations,
                self.kept_joins,
                tuple(selections),
                query.distinct,
                query.window,
            ),
            source=query,
        )


class QueryShape:
    """What is compiled once for every query of one shape.

    A shape is a query with its constants blanked (:func:`shape_key`); a
    :class:`~repro.core.protocol.QueryState` carries its own, so a node reads
    everything below off the state it stores and compiles nothing another
    query of the shape compiled already — on whichever node.  Each piece is
    compiled from the first query that needs it and kept as long as some
    state of the shape lives:

    * ``plans`` — the :class:`TriggerPlan` of each relation of FROM, at most
      one per relation;
    * ``candidates`` — the :class:`~repro.core.strategy.CandidatePlan` of a
      rewritten query of the shape;
    * ``discriminators`` — per index key ``(relation, attribute)`` (the
      attribute is None for an attribute-level key), the index of the
      selection :meth:`discriminator` names, or -1.

    The engine hands every input query of one shape the same object, with
    its :class:`RewriteMemo` as ``memo``; every live rewrite a plan produces
    gets the plan's ``child_shape``, with the same memo.  A shape travels
    with its state by reference and stands for the shape id a real wire
    would carry.
    """

    __slots__ = ("plans", "candidates", "discriminators", "memo", "__weakref__")

    def __init__(self, memo: Optional[RewriteMemo] = None) -> None:
        #: What the plans compiled here memoise their rewrites in, if anything.
        self.memo = memo
        self.plans: Dict[str, TriggerPlan] = {}
        self.candidates: Optional[CandidatePlan] = None
        self.discriminators: Dict[TupleT[str, Optional[str]], int] = {}

    def plan_for(
        self, query: Query, relation: str, schema: RelationSchema
    ) -> TriggerPlan:
        """The plan of rewriting ``query`` (of this shape) by ``relation``."""
        plan = self.plans.get(relation)
        if plan is None:
            plan = self.plans[relation] = compile_plan(
                query, relation, schema, self.memo
            )
        return plan

    def candidate_plan(self, query: Query) -> CandidatePlan:
        """The Section 6 candidate plan of ``query`` (of this shape)."""
        plan = self.candidates
        if plan is None:
            plan = self.candidates = CandidatePlan(query)
        return plan

    def discriminator(
        self, query: Query, relation: str, prefer_other_than: Optional[str]
    ) -> Optional[SelectionPredicate]:
        """The explicit selection on ``relation`` a trigger check tests first.

        A stored query can only be rewritten by a tuple of ``relation`` whose
        value for the selected attribute equals the selection's constant
        (step 1 of :meth:`TriggerPlan.apply` returns :data:`DEAD` otherwise),
        so this predicate of ``query`` is a safe *discriminator* for the query
        index: the index files the record under the selection's ``(attribute,
        value)`` and an arriving tuple only fetches records whose
        discriminator matches (or records with no discriminator at all).

        ``prefer_other_than`` names an attribute the caller already knows to
        be bound (the value-level index key's attribute, which every resident
        record trivially matches) — a selection on any *other* attribute
        prunes more, so it wins when available.
        """
        selections = query.selection_predicates
        index = self.discriminators.get((relation, prefer_other_than))
        if index is None:
            index = -1
            for position, sp in enumerate(selections):
                if sp.attribute.relation != relation:
                    continue
                if index < 0:
                    index = position
                if sp.attribute.attribute != prefer_other_than:
                    index = position
                    break
            self.discriminators[relation, prefer_other_than] = index
        return selections[index] if index >= 0 else None


def shape_key(query: Query) -> Hashable:
    """The shape of ``query``: the query with its constants blanked.

    Two queries with equal keys (and one catalog) have equal plans of every
    kind a :class:`QueryShape` holds.
    """
    return (
        query.relations,
        query.join_predicates,
        tuple([sp.attribute for sp in query.selection_predicates]),
        tuple(
            [
                item if isinstance(item, AttributeRef) else None
                for item in query.select_items
            ]
        ),
    )


def compile_plan(
    query: Query,
    relation: str,
    schema: RelationSchema,
    memo: Optional[RewriteMemo] = None,
) -> TriggerPlan:
    """The :class:`TriggerPlan` of rewriting ``query`` by tuples of ``relation``.

    ``memo`` is the engine's :class:`RewriteMemo` the plan and the plans of
    its children look their results up in; a plan compiled without one
    rewrites every time.  Raises :class:`~repro.errors.RewriteError` when
    ``relation`` does not appear in the query's FROM clause — callers are
    expected to route tuples only to queries that reference their relation.
    """
    if relation not in query.relations:
        raise RewriteError(
            f"tuple of relation {relation!r} cannot rewrite a query over "
            f"{query.relations}"
        )
    return TriggerPlan(query, relation, schema, memo)


def rewrite_query(
    query: Query,
    tup: Tuple,
    schema: RelationSchema,
    plan: Optional[TriggerPlan] = None,
) -> RewriteResult:
    """Rewrite ``query`` with ``tup`` (one step of RJoin's incremental evaluation).

    ``plan`` is the plan of ``query``'s shape and ``tup``'s relation when the
    caller kept one from an earlier rewrite; it is compiled here otherwise
    (and :class:`~repro.errors.RewriteError` raised for a tuple of a relation
    the query does not mention).
    """
    if plan is None:
        plan = compile_plan(query, tup.relation, schema)
    return plan.apply(query, tup)


def rewrite_chain(
    query: Query, tuples: List[Tuple], schemas: Dict[str, RelationSchema]
) -> RewriteResult:
    """Apply :func:`rewrite_query` repeatedly, one tuple at a time.

    A convenience for tests and the reference engine: the result is dead as
    soon as any step is dead, and complete when the final query is complete.
    """
    current = query
    for tup in tuples:
        result = rewrite_query(current, tup, schemas[tup.relation])
        if result.dead:
            return DEAD
        assert result.query is not None
        current = result.query
    if current.is_complete():
        return RewriteResult(
            query=current, complete=True, values=current.answer_values()
        )
    return RewriteResult(query=current)
