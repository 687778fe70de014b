"""Tests for incremental query rewriting (the heart of RJoin)."""

import pytest

from repro.core.rewriting import (
    DEAD,
    QueryShape,
    compile_plan,
    rewrite_chain,
    rewrite_query,
    shape_key,
)
from repro.data.schema import AttributeRef, Catalog
from repro.data.tuples import Tuple
from repro.errors import RewriteError
from repro.sql.ast import Constant
from repro.sql.parser import parse_query


@pytest.fixture
def catalog():
    catalog = Catalog()
    catalog.add_relation("R", ["A", "B", "C"])
    catalog.add_relation("S", ["A", "B", "C"])
    catalog.add_relation("P", ["A", "B", "C"])
    return catalog


def make_tuple(catalog, relation, values, **kwargs):
    return Tuple.from_schema(catalog.get(relation), values, **kwargs)


class TestRewriteStep:
    def test_paper_example_first_rewrite(self, catalog):
        """The q1 -> q2 rewrite of Section 3 (tuple t = (3, 5) of R)."""
        q1 = parse_query(
            "SELECT R.B, S.B FROM R, S, P WHERE R.A = S.A AND S.B = P.B",
            catalog=catalog,
        )
        t = make_tuple(catalog, "R", (3, 5, 0))
        result = rewrite_query(q1, t, catalog.get("R"))
        assert result.alive
        q2 = result.query
        assert q2.relations == ("S", "P")
        # select list: R.B replaced by 5, S.B untouched
        assert q2.select_items == (Constant(5), AttributeRef("S", "B"))
        # R.A = S.A became the selection S.A = 3
        assert any(
            sp.attribute == AttributeRef("S", "A") and sp.value == 3
            for sp in q2.selection_predicates
        )
        # the other join is untouched
        assert len(q2.join_predicates) == 1

    def test_arity_and_join_count_decrease(self, catalog):
        query = parse_query(
            "SELECT R.A FROM R, S, P WHERE R.A = S.A AND S.B = P.B", catalog=catalog
        )
        result = rewrite_query(
            query, make_tuple(catalog, "S", (1, 2, 3)), catalog.get("S")
        )
        assert result.query.arity == query.arity - 1
        assert result.query.num_joins == 0
        assert len(result.query.selection_predicates) == 2

    def test_satisfied_selection_is_dropped(self, catalog):
        query = parse_query(
            "SELECT R.A FROM R, S WHERE R.A = S.A AND R.B = 7", catalog=catalog
        )
        tup = make_tuple(catalog, "R", (1, 7, 0))
        result = rewrite_query(query, tup, catalog.get("R"))
        assert result.alive
        assert all(
            sp.attribute.relation != "R" for sp in result.query.selection_predicates
        )

    def test_violated_selection_is_dead(self, catalog):
        query = parse_query(
            "SELECT R.A FROM R, S WHERE R.A = S.A AND R.B = 7", catalog=catalog
        )
        tup = make_tuple(catalog, "R", (1, 8, 0))
        result = rewrite_query(query, tup, catalog.get("R"))
        assert result.dead
        assert result is DEAD or result.query is None

    def test_contradictory_derived_selections_are_dead(self, catalog):
        # S joins R on two attributes; an R tuple with different values for
        # them makes the combination unsatisfiable for any single S tuple
        # only when the derived constants contradict an existing selection.
        query = parse_query(
            "SELECT S.C FROM R, S WHERE R.A = S.A AND S.A = 5", catalog=catalog
        )
        dead = rewrite_query(
            query, make_tuple(catalog, "R", (4, 0, 0)), catalog.get("R")
        )
        assert dead.dead
        alive = rewrite_query(
            query, make_tuple(catalog, "R", (5, 0, 0)), catalog.get("R")
        )
        assert alive.alive

    def test_completion_produces_answer_values(self, catalog):
        query = parse_query(
            "SELECT R.A, S.B FROM R, S WHERE R.B = S.A", catalog=catalog
        )
        first = rewrite_query(
            query, make_tuple(catalog, "R", (1, 2, 3)), catalog.get("R")
        )
        assert first.alive
        second = rewrite_query(
            first.query, make_tuple(catalog, "S", (2, 9, 0)), catalog.get("S")
        )
        assert second.complete
        assert second.query.answer_values() == (1, 9)

    def test_completion_requires_matching_value(self, catalog):
        query = parse_query("SELECT R.A FROM R, S WHERE R.B = S.A", catalog=catalog)
        first = rewrite_query(
            query, make_tuple(catalog, "R", (1, 2, 3)), catalog.get("R")
        )
        second = rewrite_query(
            first.query, make_tuple(catalog, "S", (99, 0, 0)), catalog.get("S")
        )
        assert second.dead

    def test_wrong_relation_raises(self, catalog):
        query = parse_query("SELECT R.A FROM R, S WHERE R.B = S.A", catalog=catalog)
        result = rewrite_query(
            query, make_tuple(catalog, "R", (1, 2, 3)), catalog.get("R")
        )
        with pytest.raises(RewriteError):
            rewrite_query(
                result.query, make_tuple(catalog, "R", (1, 2, 3)), catalog.get("R")
            )

    def test_single_relation_selection_query(self, catalog):
        query = parse_query("SELECT R.A FROM R WHERE R.B = 5", catalog=catalog)
        match = rewrite_query(
            query, make_tuple(catalog, "R", (1, 5, 0)), catalog.get("R")
        )
        assert match.complete
        assert match.query.answer_values() == (1,)
        miss = rewrite_query(
            query, make_tuple(catalog, "R", (1, 6, 0)), catalog.get("R")
        )
        assert miss.dead

    def test_window_and_distinct_preserved(self, catalog):
        query = parse_query(
            "SELECT DISTINCT R.A FROM R, S WHERE R.B = S.A WINDOW 10 TUPLES",
            catalog=catalog,
        )
        result = rewrite_query(
            query, make_tuple(catalog, "R", (1, 2, 3)), catalog.get("R")
        )
        assert result.query.distinct
        assert result.query.window == query.window


class TestRewriteChain:
    def test_full_chain_from_the_paper_example(self, catalog):
        """Figure 1: q over R, S, J, M answered by t1..t4 (J, M modelled by P here)."""
        catalog.add_relation("J", ["A", "B", "C"])
        catalog.add_relation("M", ["A", "B", "C"])
        query = parse_query(
            "SELECT S.B, M.A FROM R, S, J, M "
            "WHERE R.A = S.A AND S.B = J.B AND J.C = M.C",
            catalog=catalog,
        )
        schemas = {name: catalog.get(name) for name in ("R", "S", "J", "M")}
        t1 = make_tuple(catalog, "R", (2, 5, 8))
        t2 = make_tuple(catalog, "S", (2, 6, 3))
        t4 = make_tuple(catalog, "J", (7, 6, 2))
        t3 = make_tuple(catalog, "M", (9, 1, 2))
        result = rewrite_chain(query, [t1, t2, t4, t3], schemas)
        assert result.complete
        assert result.query.answer_values() == (6, 9)

    def test_chain_dies_on_mismatch(self, catalog):
        query = parse_query("SELECT R.A FROM R, S WHERE R.B = S.A", catalog=catalog)
        schemas = {"R": catalog.get("R"), "S": catalog.get("S")}
        result = rewrite_chain(
            query,
            [make_tuple(catalog, "R", (1, 2, 3)), make_tuple(catalog, "S", (4, 4, 4))],
            schemas,
        )
        assert result.dead

    def test_partial_chain_stays_alive(self, catalog):
        query = parse_query(
            "SELECT R.A FROM R, S, P WHERE R.B = S.A AND S.B = P.A", catalog=catalog
        )
        schemas = {name: catalog.get(name) for name in ("R", "S", "P")}
        result = rewrite_chain(query, [make_tuple(catalog, "R", (1, 2, 3))], schemas)
        assert result.alive
        assert result.query.arity == 2


class TestTriggerPlan:
    def test_one_plan_serves_every_query_of_its_shape(self, catalog):
        """Compiled for one set of constants, applied to another."""
        first, second = (
            parse_query(
                f"SELECT R.A, S.C FROM R, S WHERE R.B = S.B AND S.A = {constant}",
                catalog=catalog,
            )
            for constant in (1, 2)
        )
        assert shape_key(first) == shape_key(second)
        other = parse_query(
            "SELECT R.A, S.C FROM R, S WHERE R.B = S.B AND S.B = 1", catalog=catalog
        )
        assert shape_key(other) != shape_key(first)
        schema = catalog.get("S")
        shape = QueryShape()
        plan = shape.plan_for(first, "S", schema)
        assert shape.plan_for(second, "S", schema) is plan
        assert shape.plan_for(second, "R", catalog.get("R")) is not plan
        assert list(shape.plans) == ["S", "R"]
        tup = make_tuple(catalog, "S", (2, 7, 9))
        assert rewrite_query(first, tup, schema, plan=plan).dead
        rewritten = rewrite_query(second, tup, schema, plan=plan).query
        assert rewritten == rewrite_query(second, tup, schema).query
        assert rewritten.select_items == (AttributeRef("R", "A"), Constant(9))

    def test_completeness_is_decided_at_compile_time(self, catalog):
        query = parse_query(
            "SELECT R.A, S.C FROM R, S WHERE R.B = S.B", catalog=catalog
        )
        assert not compile_plan(query, "S", catalog.get("S")).complete
        last = rewrite_query(
            query, make_tuple(catalog, "R", (1, 2, 3)), catalog.get("R")
        ).query
        assert compile_plan(last, "S", catalog.get("S")).complete
        result = rewrite_query(
            last, make_tuple(catalog, "S", (0, 2, 5)), catalog.get("S")
        )
        assert result.complete and result.values == (1, 5)
        # The answer's query is only built when somebody asks for it.
        assert result.query.is_complete()
        assert result.query.answer_values() == (1, 5)

    def test_join_onto_a_selected_attribute_must_agree_with_it(self, catalog):
        query = parse_query(
            "SELECT R.A FROM R, S WHERE R.B = S.B AND S.B = 4", catalog=catalog
        )
        schema = catalog.get("R")
        assert rewrite_query(query, make_tuple(catalog, "R", (1, 5, 0)), schema).dead
        agreed = rewrite_query(query, make_tuple(catalog, "R", (1, 4, 0)), schema)
        assert len(agreed.query.selection_predicates) == 1
