"""Tests for the centralised continuous-join oracle."""

import itertools
import random
import time
from collections import defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.reference import ReferenceEngine
from repro.core.windows import combination_valid
from repro.data.schema import AttributeRef, Catalog
from repro.data.tuples import Tuple
from repro.errors import EngineError, SchemaError, UnknownRelationError
from repro.sql.ast import (
    Constant,
    JoinPredicate,
    Query,
    SelectionPredicate,
    WindowSpec,
)
from repro.sql.parser import parse_query


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.add_relation("R", ["a", "b"])
    cat.add_relation("S", ["c", "d"])
    cat.add_relation("T", ["e", "f"])
    return cat


class TestReferenceEngine:
    def test_two_way_join(self, catalog):
        ref = ReferenceEngine(catalog)
        qid = ref.submit(parse_query("SELECT R.a, S.d FROM R, S WHERE R.b = S.c"))
        assert ref.publish("R", (1, 10)) == {}
        produced = ref.publish("S", (10, 99))
        assert produced == {qid: [(1, 99)]}
        assert ref.answers(qid) == [(1, 99)]

    def test_order_independence(self, catalog):
        ref = ReferenceEngine(catalog)
        qid = ref.submit(parse_query("SELECT R.a, S.d FROM R, S WHERE R.b = S.c"))
        ref.publish("S", (10, 99))
        produced = ref.publish("R", (1, 10))
        assert produced[qid] == [(1, 99)]

    def test_three_way_join_and_bag_semantics(self, catalog):
        ref = ReferenceEngine(catalog)
        qid = ref.submit(
            parse_query(
                "SELECT R.a, T.f FROM R, S, T WHERE R.b = S.c AND S.d = T.e"
            )
        )
        ref.publish("R", (1, 5))
        ref.publish("S", (5, 7))
        ref.publish("S", (5, 7))          # a second identical S tuple
        ref.publish("T", (7, 42))
        # Two distinct combinations produce the same values: bag semantics keeps both.
        assert ref.answers(qid) == [(1, 42), (1, 42)]

    def test_distinct_deduplicates(self, catalog):
        ref = ReferenceEngine(catalog)
        qid = ref.submit(
            parse_query("SELECT DISTINCT R.a, S.d FROM R, S WHERE R.b = S.c")
        )
        ref.publish("R", (1, 5))
        ref.publish("S", (5, 9))
        ref.publish("S", (5, 9))
        assert ref.answers(qid) == [(1, 9)]

    def test_tuples_published_before_submission_excluded(self, catalog):
        ref = ReferenceEngine(catalog)
        ref.publish("R", (1, 10), pub_time=1.0)
        qid = ref.submit(
            parse_query("SELECT R.a, S.d FROM R, S WHERE R.b = S.c"),
            insertion_time=5.0,
        )
        ref.publish("S", (10, 3), pub_time=6.0)
        assert ref.answers(qid) == []

    def test_selection_predicates(self, catalog):
        ref = ReferenceEngine(catalog)
        qid = ref.submit(
            parse_query("SELECT R.a FROM R, S WHERE R.b = S.c AND S.d = 1")
        )
        ref.publish("R", (7, 3))
        ref.publish("S", (3, 2))
        ref.publish("S", (3, 1))
        assert ref.answers(qid) == [(7,)]

    def test_window_restricts_combinations(self, catalog):
        ref = ReferenceEngine(catalog)
        query = parse_query(
            "SELECT R.a, S.d FROM R, S WHERE R.b = S.c"
        ).with_window(WindowSpec(size=2, mode="tuples"))
        qid = ref.submit(query)
        ref.publish("R", (1, 10))           # sequence 1
        ref.publish("S", (10, 20))          # sequence 2: span 2 <= 2 -> answer
        ref.publish("S", (10, 30))          # sequence 3: span 3 > 2 -> rejected
        assert ref.answers(qid) == [(1, 20)]

    def test_unknown_relation_and_query(self, catalog):
        ref = ReferenceEngine(catalog)
        with pytest.raises(UnknownRelationError):
            ref.publish("ZZ", (1,))
        with pytest.raises(EngineError):
            ref.answers("missing")

    def test_duplicate_query_id_rejected(self, catalog):
        ref = ReferenceEngine(catalog)
        ref.submit(parse_query("SELECT R.a FROM R"), query_id="q1")
        with pytest.raises(EngineError):
            ref.submit(parse_query("SELECT R.a FROM R"), query_id="q1")

    def test_default_ids_stay_unique_after_a_removal(self, catalog):
        ref = ReferenceEngine(catalog)
        first = ref.submit(parse_query("SELECT R.a FROM R"))
        second = ref.submit(parse_query("SELECT R.a FROM R"))
        ref.remove_query(first)
        third = ref.submit(parse_query("SELECT R.a FROM R"))
        assert len({first, second, third}) == 3

    def test_counters(self, catalog):
        ref = ReferenceEngine(catalog)
        ref.submit(parse_query("SELECT R.a FROM R"))
        ref.publish("R", (1, 2))
        assert ref.registered_queries == 1
        assert ref.published_tuples == 1
        assert ref.answer_count("ref#1") == 1

    def test_publish_tuple_rejects_what_publish_rejects(self, catalog):
        ref = ReferenceEngine(catalog)
        with pytest.raises(UnknownRelationError):
            ref.publish_tuple(Tuple("ZZ", (1,)))
        with pytest.raises(SchemaError):
            ref.publish_tuple(Tuple("R", (1, 2, 3)))
        assert ref.published_tuples == 0
        qid = ref.submit(parse_query("SELECT R.a, S.d FROM R, S WHERE R.b = S.c"))
        ref.publish("R", (1, 10))
        assert ref.publish("S", (10, 99)) == {qid: [(1, 99)]}

    def test_a_three_way_window_over_800_tuples_takes_under_a_second(self, catalog):
        ref = ReferenceEngine(catalog)
        qid = ref.submit(
            parse_query(
                "SELECT R.a, S.d, T.f FROM R, S, T "
                "WHERE R.b = S.c AND S.d = T.e WINDOW 100 TUPLES"
            )
        )
        rng = random.Random(38)
        rows = [
            (rng.choice("RST"), (rng.randrange(10), rng.randrange(10)))
            for _ in range(800)
        ]
        start = time.perf_counter()
        for relation, values in rows:
            ref.publish(relation, values)
        elapsed = time.perf_counter() - start
        # The count a cross product per tuple gives on this stream.
        assert ref.answer_count(qid) == 7664
        assert elapsed < 1.0


# ---------------------------------------------------------------------------
# The oracle equals Definitions 1 and 2 written as nested loops
# ---------------------------------------------------------------------------
_CATALOG = Catalog()
_CATALOG.add_relation("R", ["a", "b"])
_CATALOG.add_relation("S", ["c", "d"])
_CATALOG.add_relation("T", ["e", "f"])


class _NestedLoopSpec:
    """New answers as a cross product per published tuple, filtered in Python."""

    def __init__(self):
        self.queries = {}  # query id -> (query, insertion time, DISTINCT's seen)
        self.answers = defaultdict(list)
        self.tuples = []

    def publish(self, tup):
        produced = {}
        for query_id, (query, since, seen) in self.queries.items():
            if tup.relation not in query.relations or tup.pub_time < since:
                continue
            earlier = [t for t in self.tuples if t.pub_time >= since]
            pools = []
            for relation in query.relations:
                if relation == tup.relation:
                    pools.append([tup])
                else:
                    pools.append([t for t in earlier if t.relation == relation])
            for combination in itertools.product(*pools):
                bound = {t.relation: t for t in combination}

                def value(ref):
                    schema = _CATALOG.get(ref.relation)
                    return bound[ref.relation].value_of(ref.attribute, schema)

                if any(value(p.left) != value(p.right) for p in query.join_predicates):
                    continue
                if any(
                    value(p.attribute) != p.value for p in query.selection_predicates
                ):
                    continue
                window = query.window
                if window and not combination_valid(
                    window, tuple(window.clock_of(t) for t in combination)
                ):
                    continue
                values = tuple(
                    item.value if isinstance(item, Constant) else value(item)
                    for item in query.select_items
                )
                if query.distinct:
                    if values in seen:
                        continue
                    seen.add(values)
                produced.setdefault(query_id, []).append(values)
                self.answers[query_id].append(values)
        self.tuples.append(tup)
        return produced


_VALUES = st.sampled_from([0, 1, 2, 2, None, 1.0, True, "1"])
_WINDOWS = st.sampled_from(
    [None, None]
    + [WindowSpec(size, "tuples") for size in (0.5, 1, 2, 5)]
    + [WindowSpec(size, "time") for size in (0.5, 1, 1.5, 4)]
)


def _attributes(relations):
    return st.sampled_from(
        [
            AttributeRef(relation, attribute)
            for relation in relations
            for attribute in _CATALOG.get(relation).attributes
        ]
    )


@st.composite
def _queries(draw):
    relations = draw(st.permutations("RST"))[: draw(st.integers(1, 3))]
    # A spanning chain keeps the join graph connected; one more edge may close a cycle.
    joins = [
        JoinPredicate(draw(_attributes(relations[:i])), draw(_attributes([relation])))
        for i, relation in enumerate(relations)
        if i
    ]
    if len(relations) > 1 and draw(st.booleans()):
        left, right = draw(st.permutations(relations))[:2]
        joins.append(
            JoinPredicate(draw(_attributes([left])), draw(_attributes([right])))
        )
    selection = st.builds(SelectionPredicate, _attributes(relations), _VALUES)
    selections = draw(st.lists(selection, max_size=2))
    items = st.one_of(_attributes(relations), _VALUES.map(Constant))
    return Query(
        select_items=tuple(draw(st.lists(items, min_size=1, max_size=3))),
        relations=tuple(relations),
        join_predicates=tuple(joins),
        selection_predicates=tuple(selections),
        distinct=draw(st.booleans()),
        window=draw(_WINDOWS),
    )


_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), _queries(), st.sampled_from([-1.0, 0.0, 0.5])),
        st.tuples(st.just("remove"), st.integers(0, 7)),
        st.tuples(
            st.just("publish"),
            st.sampled_from("RST"),
            st.tuples(_VALUES, _VALUES),
            st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        ),
    ),
    max_size=40,
)
_JOIN = parse_query("SELECT R.a, R.b, S.c, S.d FROM R, S WHERE R.b = S.c")
_SELECT = parse_query("SELECT S.c, S.d FROM S WHERE S.c = 1")
_DISTINCT = parse_query("SELECT DISTINCT S.c FROM S")
_DISTINCT_JOIN = parse_query("SELECT DISTINCT R.a FROM R, S WHERE R.b = S.c")
_NARROW = parse_query("SELECT S.c FROM S").with_window(WindowSpec(0.5, "tuples"))
_OTHER_ONE = [("S", (1.0, 0)), ("S", (True, 0)), ("S", ("1", 0)), ("S", (1, 0))]


def _program(query, *rows):
    return [("submit", query, 0.0)] + [("publish", *row, 1.0) for row in rows]


@settings(max_examples=200, deadline=None)
@given(_STEPS)
@example(_program(_JOIN, ("R", (0, None)), ("S", (None, 2))))  # None joins None
@example(_program(_JOIN, ("R", (0, 1)), *_OTHER_ONE))  # 1 = 1.0 = True != "1"
@example(_program(_SELECT, *_OTHER_ONE))
@example(_program(_DISTINCT, *_OTHER_ONE))
@example(_program(_DISTINCT_JOIN, ("R", (True, 0)), ("R", (1, 0)), ("S", (0, 0))))
@example(_program(_NARROW, ("S", (0, 0))))  # one tuple spans 1 > 0.5
def test_oracle_equals_the_nested_loop_specification(steps):
    oracle, spec = ReferenceEngine(_CATALOG), _NestedLoopSpec()
    submitted, live, clock = [], [], 0.0
    for step in steps:
        if step[0] == "submit":
            _, query, offset = step
            query_id = oracle.submit(query, insertion_time=clock + offset)
            spec.queries[query_id] = (query, clock + offset, set())
            submitted.append(query_id)
            live.append(query_id)
        elif step[0] == "remove":
            if live:
                query_id = live.pop(step[1] % len(live))
                oracle.remove_query(query_id)
                del spec.queries[query_id]
        else:
            _, relation, values, advance = step
            clock += advance
            tup = Tuple(relation, values, clock, sequence=len(spec.tuples) + 1)
            got = oracle.publish(relation, values, pub_time=clock)
            # repr tells 1, 1.0 and True apart: each answer keeps its own values.
            assert repr(got) == repr(spec.publish(tup))
    assert oracle.published_tuples == len(spec.tuples)
    for query_id in submitted:
        assert repr(oracle.answers(query_id)) == repr(spec.answers[query_id])
