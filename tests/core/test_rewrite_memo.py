"""The rewrite memo: one result per distinct (plan, query, tuple values).

An engine's :class:`~repro.core.rewriting.RewriteMemo` sits behind
``TriggerPlan.apply``: a key recurring at the positions a plan reads returns
the result computed for it before, so equal rewrites share one child query,
one answer-values tuple and one candidate tuple.  What a memoised plan
returns must equal what a plan compiled without one returns; the memo holds
at most two generations of ``MEMO_GENERATION`` entries, is skipped for a
while when its lookups stop paying, belongs to one engine and empties when
a query is removed and when the engine closes.
"""

from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import RJoinConfig
from repro.core.engine import RJoinEngine
from repro.core.rewriting import (
    MEMO_GENERATION,
    MEMO_PAUSE,
    QueryShape,
    RewriteMemo,
    compile_plan,
)
from repro.core.strategy import CandidatePlan
from repro.data.schema import AttributeRef, Catalog
from repro.data.tuples import Tuple
from repro.errors import SchemaError
from repro.sql.ast import Constant, JoinPredicate, Query, SelectionPredicate
from repro.sql.parser import parse_query

pytestmark = pytest.mark.hard_timeout(120)

SQL = "SELECT R.a, S.d FROM R, S WHERE R.b = S.c"
CATALOG = Catalog.uniform(3, 3)
#: Two values over three positions: a stream of a few dozen tuples repeats
#: most of its values at whatever positions a plan reads.
VALUES = st.integers(min_value=0, max_value=1)


def two_way_catalog():
    catalog = Catalog()
    catalog.add_relation("R", ["a", "b"])
    catalog.add_relation("S", ["c", "d"])
    return catalog


def memo_plan(memo, relation="R"):
    """A memoised plan of ``SQL`` for ``relation``, and the query."""
    catalog = two_way_catalog()
    query = parse_query(SQL, catalog=catalog)
    return QueryShape(memo).plan_for(query, relation, catalog.get(relation)), query


def make_engine(runtime="sim"):
    engine = RJoinEngine(
        RJoinConfig(num_nodes=16, seed=5, strategy="first", runtime=runtime)
    )
    engine.register_relation("R", ["a", "b"])
    engine.register_relation("S", ["c", "d"])
    return engine


def entries(memo):
    return list(memo.young.values()) + list(memo.old.values())


@st.composite
def streams(draw):
    """A chain query with selections and constants, and a tuple stream."""
    arity = draw(st.integers(2, 3))
    relations = tuple(draw(st.permutations(CATALOG.relation_names()))[:arity])

    def ref(relation):
        return AttributeRef(relation, draw(st.sampled_from(["a0", "a1", "a2"])))

    joins = [
        JoinPredicate(ref(relations[i - 1]), ref(relations[i]))
        for i in range(1, arity)
    ]
    selections = [
        SelectionPredicate(ref(draw(st.sampled_from(relations))), draw(VALUES))
        for _ in range(draw(st.integers(0, 2)))
    ]
    select_items = [
        Constant(draw(VALUES))
        if draw(st.booleans())
        else ref(draw(st.sampled_from(relations)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    query = Query(
        select_items=tuple(select_items),
        relations=relations,
        join_predicates=tuple(joins),
        selection_predicates=tuple(selections),
        distinct=draw(st.booleans()),
    )
    row = st.tuples(st.sampled_from(relations), st.tuples(VALUES, VALUES, VALUES))
    rows = draw(st.lists(row, min_size=1, max_size=30))
    return query, [Tuple.from_schema(CATALOG.get(rel), row) for rel, row in rows]


class TestEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(streams(), st.booleans())
    def test_memoised_rewrites_equal_plain_ones(self, case, allow):
        """Every stored query meets every later tuple of its relations; the
        children a memoised plan returns are stored too, so equal rewrites
        share parents and the children's keys recur in turn."""
        query, tuples = case
        memo = RewriteMemo()
        stored = [(query, QueryShape(memo))]
        for tup in tuples:
            schema = CATALOG.get(tup.relation)
            for parent, shape in list(stored):
                if tup.relation not in parent.relations:
                    continue
                plan = shape.plan_for(parent, tup.relation, schema)
                got = plan.apply(parent, tup)
                want = compile_plan(parent, tup.relation, schema).apply(parent, tup)
                outcome = (got.dead, got.complete, got.values)
                assert outcome == (want.dead, want.complete, want.values)
                assert got.query == want.query
                if not got.alive:
                    continue
                child = got.query
                if got.candidates is None:  # as the trigger path enumerates
                    candidates = plan.child_shape.candidate_plan(child)
                    got.candidates = candidates.apply(child, allow)
                expected = CandidatePlan(want.query).apply(want.query, allow)
                assert got.candidates == expected
                if len(stored) < 40:
                    stored.append((child, plan.child_shape))
        assert len(memo) <= 2 * MEMO_GENERATION

    def test_an_unhashable_value_is_rewritten_without_a_key(self):
        memo = RewriteMemo()
        plan, query = memo_plan(memo)
        plain = compile_plan(query, "R", two_way_catalog().get("R"))
        tup = Tuple("R", ([1, 2], 10))
        for _ in range(3):
            result = plan.apply(query, tup)
            assert result.alive
            assert result.query == plain.apply(query, tup).query
        assert len(memo) == 0

    @pytest.mark.parametrize("values", [(1,), (1, 10, 99)])
    def test_a_tuple_of_the_wrong_arity_raises_even_when_its_key_hits(self, values):
        memo = RewriteMemo()
        plan, query = memo_plan(memo)
        for _ in range(2):
            plan.apply(query, Tuple("R", (1, 10)))
        assert len(memo) == 1
        with pytest.raises(SchemaError):
            plan.apply(query, Tuple("R", values))


class TestSharing:
    def test_equal_rewrites_return_one_result_once_the_key_recurs(self):
        memo = RewriteMemo()
        plan, query = memo_plan(memo)
        first = plan.apply(query, Tuple("R", (1, 10)))
        assert len(memo) == 0  # seen once: only its bit is set
        second = plan.apply(query, Tuple("R", (1, 10), sequence=2))
        third = plan.apply(query, Tuple("R", (1, 10), sequence=3))
        assert second is third and second is not first
        assert second.query is third.query and second.query == first.query
        assert plan.apply(query, Tuple("R", (2, 10))) is not second

    def test_a_dead_rewrite_repeats_dead(self):
        memo = RewriteMemo()
        catalog = two_way_catalog()
        query = parse_query(SQL + " AND R.a = 3", catalog=catalog)
        plan = QueryShape(memo).plan_for(query, "R", catalog.get("R"))
        results = [plan.apply(query, Tuple("R", (1, 10))) for _ in range(3)]
        assert all(result.dead and result.query is None for result in results)
        assert results[1] is results[2] and len(memo) == 1

    @pytest.mark.parametrize(
        "sql, values",
        [
            (SQL, (1, 10)),  # alive
            (SQL + " AND R.a = 3", (1, 10)),  # dead
            ("SELECT R.a FROM R", (1, 10)),  # complete
        ],
    )
    def test_an_entry_keeps_the_query_its_key_names_alive(self, sql, values):
        """A key holds ``id(query)``: while the entry lives that id must not
        be reused, so the entry refers to the query itself."""
        memo = RewriteMemo()
        catalog = two_way_catalog()
        query = parse_query(sql, catalog=catalog)
        plan = QueryShape(memo).plan_for(query, "R", catalog.get("R"))
        for _ in range(2):
            plan.apply(query, Tuple("R", values))
        (entry,) = entries(memo)
        assert entry in gc.get_referrers(query)

    def test_equal_rewrites_enumerate_their_candidates_once(self, monkeypatch):
        enumerated = []
        apply = CandidatePlan.apply

        def counting_apply(self, *args):
            enumerated.append(self)
            return apply(self, *args)

        monkeypatch.setattr(CandidatePlan, "apply", counting_apply)
        engine = make_engine()
        handle = engine.submit(SQL)
        engine.publish("R", (1, 10))  # the key's first sight
        assert len(enumerated) == 1
        engine.publish("R", (1, 10))  # admitted: computed and kept
        engine.publish("R", (1, 10))  # shares the kept result
        assert len(enumerated) == 2
        engine.publish("S", (10, 7))
        assert handle.values() == [(1, 7)] * 3
        engine.close()


class TestBound:
    def test_a_flood_of_distinct_rewrites_keeps_two_generations(self):
        memo = RewriteMemo()
        plan, query = memo_plan(memo)
        for value in range(3 * MEMO_GENERATION):
            tup = Tuple("R", (value, value))
            plan.apply(query, tup)
            plan.apply(query, tup)  # the second sight admits it
            plan.apply(query, tup)  # and a hit keeps the memo worth asking
            assert len(memo.young) <= MEMO_GENERATION
            assert len(memo) <= 2 * MEMO_GENERATION
        assert len(memo) > MEMO_GENERATION and not memo.paused

    def test_rewrites_seen_once_leave_next_to_nothing(self):
        """Only a key whose bit another key set is admitted on first sight."""
        memo = RewriteMemo()
        plan, query = memo_plan(memo)
        for value in range(2 * MEMO_GENERATION):
            plan.apply(query, Tuple("R", (value, value)))
        assert len(memo) < MEMO_GENERATION // 8


class TestPause:
    def test_a_memo_that_does_not_pay_is_skipped_then_asked_again(self):
        memo = RewriteMemo()
        plan, query = memo_plan(memo)
        plain = compile_plan(query, "R", two_way_catalog().get("R"))
        for value in range(MEMO_GENERATION):  # misses and no hit
            plan.apply(query, Tuple("R", (value, value)))
        assert memo.paused == MEMO_PAUSE
        kept = len(memo)
        tup = Tuple("R", (-1, -1))
        for _ in range(MEMO_PAUSE):
            result = plan.apply(query, tup)
        assert result.query == plain.apply(query, tup).query
        assert memo.paused == 0 and len(memo) == kept  # nothing seen or kept
        first = plan.apply(query, tup)
        second = plan.apply(query, tup)
        assert len(memo) == kept + 1 and plan.apply(query, tup) is second
        assert first is not second


class TestOwnership:
    @staticmethod
    def repeat_one_rewrite(engine):
        handle = engine.submit(SQL)
        for _ in range(3):
            engine.publish("R", (1, 10))
        assert len(engine._rewrites)
        return handle

    def test_two_engines_share_no_entry(self):
        first, second = make_engine(), make_engine()
        self.repeat_one_rewrite(first)
        self.repeat_one_rewrite(second)
        assert first._rewrites is not second._rewrites
        mine = {id(result) for result in entries(first._rewrites)}
        assert mine.isdisjoint(id(result) for result in entries(second._rewrites))
        first.close()
        second.close()

    def test_removing_the_last_query_empties_the_memo(self):
        engine = make_engine()
        handle = self.repeat_one_rewrite(engine)
        engine.remove_query(handle.query_id)
        assert len(engine._rewrites) == 0
        engine.close()

    def test_closing_the_engine_empties_the_memo(self):
        engine = make_engine()
        self.repeat_one_rewrite(engine)
        engine.close()
        assert len(engine._rewrites) == 0

    def test_both_runtimes_share_rewrites_and_deliver_one_bag(self):
        bags = []
        for runtime in ("sim", "asyncio"):
            engine = make_engine(runtime)
            handle = self.repeat_one_rewrite(engine)
            engine.publish_batch([("S", (10, 7)), ("R", (2, 10)), ("S", (10, 8))])
            bags.append(sorted(handle.values()))
            engine.close()
        expected = [(1, 7)] * 3 + [(1, 8)] * 3 + [(2, 7), (2, 8)]
        assert bags[0] == bags[1] == sorted(expected)
