"""Tests for the query AST."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.data.schema import AttributeRef
from repro.errors import PredicateBindingError, UnsupportedQueryError
from repro.sql.ast import (
    Constant,
    JoinPredicate,
    Query,
    SelectionPredicate,
    WindowSpec,
)

ROOT = Path(__file__).resolve().parents[2]


def two_way_query(**overrides):
    params = dict(
        select_items=(AttributeRef("R", "a"), AttributeRef("S", "d")),
        relations=("R", "S"),
        join_predicates=(
            JoinPredicate(AttributeRef("R", "b"), AttributeRef("S", "c")),
        ),
    )
    params.update(overrides)
    return Query(**params)


class TestJoinPredicate:
    def test_relations_and_references(self):
        jp = JoinPredicate(AttributeRef("R", "a"), AttributeRef("S", "b"))
        assert jp.relations() == frozenset({"R", "S"})
        assert jp.references("R") and jp.references("S")
        assert not jp.references("T")

    def test_side_selection(self):
        jp = JoinPredicate(AttributeRef("R", "a"), AttributeRef("S", "b"))
        assert jp.side_for("R") == AttributeRef("R", "a")
        assert jp.other_side("R") == AttributeRef("S", "b")
        with pytest.raises(PredicateBindingError):
            jp.side_for("T")

    def test_normalized_is_deterministic(self):
        jp = JoinPredicate(AttributeRef("S", "b"), AttributeRef("R", "a"))
        flipped = JoinPredicate(AttributeRef("R", "a"), AttributeRef("S", "b"))
        assert jp.normalized() == flipped.normalized()


class TestWindowSpec:
    def test_invalid_mode_rejected(self):
        with pytest.raises(UnsupportedQueryError):
            WindowSpec(size=10, mode="rows")

    def test_non_positive_size_rejected(self):
        with pytest.raises(UnsupportedQueryError):
            WindowSpec(size=0)

    def test_clock_of_uses_mode(self):
        from repro.data.tuples import Tuple

        tup = Tuple(relation="R", values=(1,), pub_time=3.5, sequence=8)
        assert WindowSpec(size=10, mode="time").clock_of(tup) == 3.5
        assert WindowSpec(size=10, mode="tuples").clock_of(tup) == 8


class TestQuery:
    def test_structural_accessors(self):
        query = two_way_query()
        assert query.arity == 2
        assert query.num_joins == 1
        assert not query.is_complete()
        assert query.references_relation("R")
        assert not query.references_relation("T")

    def test_attribute_refs_deduplicated(self):
        query = two_way_query(
            select_items=(AttributeRef("R", "b"), AttributeRef("R", "b"))
        )
        refs = query.attribute_refs()
        assert refs.count(AttributeRef("R", "b")) == 1

    def test_complete_query(self):
        query = Query(select_items=(Constant(1), Constant("x")), relations=())
        assert query.is_complete()
        assert query.answer_values() == (1, "x")

    def test_answer_values_requires_complete(self):
        query = two_way_query()
        with pytest.raises(UnsupportedQueryError):
            query.answer_values()

    def test_duplicate_from_relations_rejected(self):
        with pytest.raises(UnsupportedQueryError):
            Query(select_items=(Constant(1),), relations=("R", "R"))

    def test_validate_rejects_disconnected_graph(self):
        query = Query(
            select_items=(AttributeRef("R", "a"),),
            relations=("R", "S", "T"),
            join_predicates=(
                JoinPredicate(AttributeRef("R", "a"), AttributeRef("S", "b")),
            ),
        )
        with pytest.raises(UnsupportedQueryError):
            query.validate()

    def test_validate_rejects_self_join_predicate(self):
        query = Query(
            select_items=(AttributeRef("R", "a"),),
            relations=("R", "S"),
            join_predicates=(
                JoinPredicate(AttributeRef("R", "a"), AttributeRef("R", "b")),
                JoinPredicate(AttributeRef("R", "a"), AttributeRef("S", "b")),
            ),
        )
        with pytest.raises(UnsupportedQueryError):
            query.validate()

    def test_validate_rejects_refs_outside_from(self):
        query = Query(
            select_items=(AttributeRef("Z", "a"),),
            relations=("R",),
            selection_predicates=(SelectionPredicate(AttributeRef("R", "a"), 1),),
        )
        with pytest.raises(UnsupportedQueryError):
            query.validate()

    def test_with_window(self):
        query = two_way_query()
        windowed = query.with_window(WindowSpec(size=5, mode="tuples"))
        assert windowed.window.size == 5
        assert query.window is None  # original untouched

    def test_predicates_order(self):
        query = two_way_query(
            selection_predicates=(SelectionPredicate(AttributeRef("R", "a"), 1),)
        )
        predicates = query.predicates()
        assert isinstance(predicates[0], JoinPredicate)
        assert isinstance(predicates[-1], SelectionPredicate)

    def test_str_renders_sql(self):
        text = str(two_way_query())
        assert text.startswith("SELECT")
        assert "WHERE" in text


class TestQueryHash:
    """A query hashes by value, and a hash never travels with a copy."""

    def query(self):
        return two_way_query(
            selection_predicates=(SelectionPredicate(AttributeRef("S", "c"), "x"),),
            window=WindowSpec(size=5, mode="tuples"),
        )

    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy, lambda query: pickle.loads(pickle.dumps(query))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_a_duplicate_of_a_hashed_query_hashes_like_a_fresh_one(self, duplicate):
        query = self.query()
        first = hash(query)
        clone = duplicate(query)
        fresh = self.query()
        assert clone == query == fresh and clone is not query
        assert hash(clone) == hash(fresh) == first
        assert {fresh: "found"}[clone] == "found"
        assert hash(query.with_window(None)) != first

    def test_unhashable_constants_still_raise(self):
        query = two_way_query(
            selection_predicates=(SelectionPredicate(AttributeRef("S", "c"), [1]),)
        )
        with pytest.raises(TypeError):
            hash(query)

    def test_hashed_query_is_found_under_another_hash_seed(self):
        """String hashes differ per process; a carried-over hash would miss."""
        query = self.query()
        hash(query)
        script = (
            "import pickle, sys\n"
            "from tests.sql.test_ast import TestQueryHash\n"
            "shipped = pickle.loads(sys.stdin.buffer.read())\n"
            "assert {TestQueryHash().query(): 'found'}[shipped] == 'found'\n"
        )
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        done = subprocess.run(
            [sys.executable, "-c", script],
            input=pickle.dumps(query),
            capture_output=True,
            env={
                **os.environ,
                "PYTHONHASHSEED": seed,
                "PYTHONPATH": os.pathsep.join(sys.path),
            },
            cwd=ROOT,
        )
        assert done.returncode == 0, done.stderr.decode()
