"""Tests for attribute-level and value-level indexing keys."""

from repro.core.keys import (
    ATTRIBUTE_LEVEL,
    VALUE_LEVEL,
    attribute_key,
    attribute_prefix,
    tuple_index_keys,
    value_key,
)
from repro.data.schema import AttributeRef, RelationSchema
from repro.data.tuples import Tuple


class TestIndexKey:
    def test_levels(self):
        assert attribute_key("R", "a").level == ATTRIBUTE_LEVEL
        assert value_key("R", "a", 5).level == VALUE_LEVEL
        assert value_key("R", "a", 5).is_value_level
        assert not attribute_key("R", "a").is_value_level

    def test_text_is_deterministic_and_distinct(self):
        assert attribute_key("R", "a").text == attribute_key("R", "a").text
        assert attribute_key("R", "a").text != attribute_key("R", "b").text
        assert value_key("R", "a", 1).text != value_key("R", "a", 2).text
        assert value_key("R", "a", 1).text != attribute_key("R", "a").text

    def test_no_concatenation_ambiguity(self):
        # "R" + "AB" must differ from "RA" + "B" (the motivation for the separator).
        assert attribute_key("R", "AB").text != attribute_key("RA", "B").text

    def test_value_types_are_distinguished(self):
        assert value_key("R", "a", 1).text != value_key("R", "a", "1").text

    def test_attribute_prefix_matches_value_keys(self):
        key = value_key("R", "a", 42)
        assert key.text.startswith(key.attribute_prefix)
        assert attribute_prefix("R", "a") == key.attribute_prefix
        other = value_key("R", "ab", 42)
        assert not other.text.startswith(key.attribute_prefix)

    def test_attribute_ref_and_level_conversion(self):
        key = value_key("R", "a", 3)
        assert key.attribute_ref == AttributeRef("R", "a")
        assert key.at_attribute_level() == attribute_key("R", "a")

    def test_text_is_no_part_of_identity(self):
        key = value_key("R", "a", 5)
        assert key.text is key.text  # built once
        assert key.text == value_key("R", "a", 5).text
        assert "text" not in repr(key)
        # Keys compare and order by (relation, attribute, value) alone:
        # as texts, 'R\x1fa\x1f10' sorts before 'R\x1fa\x1f9'.
        assert value_key("R", "a", 9) < value_key("R", "a", 10)
        assert value_key("R", "a", 10).text < value_key("R", "a", 9).text

    def test_ordering_and_hashing(self):
        keys = {
            attribute_key("R", "a"),
            attribute_key("R", "a"),
            value_key("R", "a", 1),
        }
        assert len(keys) == 2
        assert sorted([value_key("R", "b", 1), attribute_key("R", "a")])


class TestTupleIndexKeys:
    def test_two_keys_per_attribute(self):
        schema = RelationSchema("R", ["a", "b", "c"])
        tup = Tuple.from_schema(schema, (1, 2, 3))
        keys = tuple_index_keys(tup, schema)
        assert len(keys) == 6
        levels = [key.level for key in keys]
        assert levels.count(ATTRIBUTE_LEVEL) == 3
        assert levels.count(VALUE_LEVEL) == 3

    def test_value_keys_carry_tuple_values(self):
        schema = RelationSchema("R", ["a", "b"])
        tup = Tuple.from_schema(schema, (7, 9))
        keys = tuple_index_keys(tup, schema)
        assert value_key("R", "a", 7) in keys
        assert value_key("R", "b", 9) in keys
        assert attribute_key("R", "a") in keys
