"""Tests for the centralised continuous-join oracle."""

import pytest

from repro.core.reference import ReferenceEngine
from repro.data.schema import Catalog
from repro.errors import EngineError, UnknownRelationError
from repro.sql.ast import WindowSpec
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
