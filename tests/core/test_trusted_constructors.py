"""The rewrite path's trusted constructors build what the public ones build.

:func:`~repro.sql.ast.trusted_query`, :func:`~repro.sql.ast.trusted_selection`,
:func:`~repro.sql.ast.trusted_constant`, :func:`~repro.core.keys.trusted_key`
and :func:`~repro.core.windows.trusted_window_state` skip ``__init__`` and
its checks.  On the same fields their objects must be indistinguishable from
the public constructors' ones: equality both ways, hash, repr, ordering where
the class orders, pickling, copying and :attr:`IndexKey.text` interning --
and they stay frozen.  The public constructors keep their validation.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import FrozenInstanceError
from typing import Any

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.keys import IndexKey, trusted_key
from repro.core.windows import WindowState, trusted_window_state
from repro.data.schema import AttributeRef
from repro.errors import UnsupportedQueryError
from repro.sql.ast import (
    Constant,
    JoinPredicate,
    Query,
    SelectionPredicate,
    WindowSpec,
    trusted_constant,
    trusted_query,
    trusted_selection,
)

values = st.one_of(
    st.integers(),
    st.text(max_size=4),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False),
)
relations = st.sampled_from(["R", "S", "T"])
attributes = st.sampled_from(["a", "b", "c"])
refs = st.builds(AttributeRef, relations, attributes)
clocks = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-5, 5)


def assert_alike(trusted: Any, public: Any) -> None:
    """``trusted`` cannot be told from ``public`` but by identity."""
    assert type(trusted) is type(public)
    assert trusted == public and public == trusted
    assert not trusted != public
    assert hash(trusted) == hash(public)
    assert repr(trusted) == repr(public)
    for twin in (
        pickle.loads(pickle.dumps(trusted)),
        copy.copy(trusted),
        copy.deepcopy(trusted),
    ):
        assert twin == public and repr(twin) == repr(public)
        assert hash(twin) == hash(public)


def assert_orders_alike(trusted: Any, public: Any, other: Any) -> None:
    for op in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(trusted, op)(other) == getattr(public, op)(other)
        assert getattr(other, op)(trusted) == getattr(other, op)(public)


def assert_frozen(obj: Any, field: str) -> None:
    with pytest.raises(FrozenInstanceError):
        setattr(obj, field, None)


@given(values, st.integers(), st.integers())
def test_constant(value, left, right):
    assert_alike(trusted_constant(value), Constant(value))
    assert_orders_alike(trusted_constant(left), Constant(left), Constant(right))
    assert_frozen(trusted_constant(value), "value")


@given(refs, values)
def test_selection(attribute, value):
    trusted = trusted_selection(attribute, value)
    assert_alike(trusted, SelectionPredicate(attribute, value))
    assert_frozen(trusted, "attribute")
    assert_frozen(trusted, "value")


@given(relations, attributes, values, relations, attributes, st.integers())
def test_key(relation, attribute, value, other_relation, other_attribute, other):
    trusted = trusted_key(relation, attribute, value)
    public = IndexKey(relation, attribute, value)
    assert_alike(trusted, public)
    assert trusted.text is public.text
    assert trusted.level == public.level
    # Ordering needs comparable values: one integer each.
    number = value if isinstance(value, int) and not isinstance(value, bool) else 0
    assert_orders_alike(
        trusted_key(relation, attribute, number),
        IndexKey(relation, attribute, number),
        IndexKey(other_relation, other_attribute, other),
    )
    assert_frozen(trusted, "text")


@given(clocks, clocks, clocks)
def test_window_state(low, high, clock):
    assert_alike(trusted_window_state(low, high), WindowState(low, high))
    extended = WindowState(low, high).extended_with(clock)
    assert_alike(extended, WindowState(min(low, clock), max(high, clock)))
    assert_frozen(extended, "min_clock")


@st.composite
def query_fields(draw):
    rels = tuple(draw(st.lists(relations, min_size=1, max_size=3, unique=True)))
    own_refs = st.builds(AttributeRef, st.sampled_from(rels), attributes)
    items = own_refs | st.builds(Constant, values)
    select = tuple(draw(st.lists(items, max_size=3)))
    joins = st.builds(JoinPredicate, own_refs, own_refs)
    selections = st.builds(SelectionPredicate, own_refs, values)
    join_predicates = tuple(draw(st.lists(joins, max_size=2)))
    selection_predicates = tuple(draw(st.lists(selections, max_size=2)))
    window = draw(st.none() | st.builds(WindowSpec, st.integers(1, 50)))
    distinct = draw(st.booleans())
    return select, rels, join_predicates, selection_predicates, distinct, window


@given(query_fields())
def test_query(fields):
    trusted = trusted_query(*fields)
    assert_alike(trusted, Query(*fields))
    for field in ("select_items", "relations", "window"):
        assert_frozen(trusted, field)


class TestPublicConstructorsStillValidate:
    def test_query_turns_lists_into_tuples(self):
        ref = AttributeRef("R", "a")
        query = Query([ref], ["R"], [], [SelectionPredicate(ref, 1)])
        assert type(query.select_items) is tuple
        assert type(query.relations) is tuple
        assert type(query.join_predicates) is tuple
        assert type(query.selection_predicates) is tuple
        assert query == trusted_query(
            (ref,), ("R",), (), (SelectionPredicate(ref, 1),), False, None
        )

    def test_query_rejects_a_relation_listed_twice(self):
        with pytest.raises(UnsupportedQueryError, match="self-joins"):
            Query((AttributeRef("R", "a"),), ("R", "R"))

    def test_public_objects_stay_frozen(self):
        assert_frozen(Query((AttributeRef("R", "a"),), ("R",)), "relations")
        assert_frozen(IndexKey("R", "a", 1), "value")
        assert_frozen(WindowState(1.0, 2.0), "max_clock")
