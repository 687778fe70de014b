"""Tests for DISTINCT projection tracking."""

from repro.core.dedup import ProjectionTracker, project, projection_attributes
from repro.data.schema import Catalog
from repro.data.tuples import Tuple
from repro.sql.parser import parse_query


def catalog():
    cat = Catalog()
    cat.add_relation("R", ["A1", "A2", "A3"])
    cat.add_relation("S", ["B1", "B2", "B3"])
    return cat


def make_tuple(cat, relation, values):
    return Tuple.from_schema(cat.get(relation), values)


def paper_query(cat):
    return parse_query(
        "SELECT R.A1, S.B1 FROM R, S WHERE R.A2 = S.B2", catalog=cat
    )


class TestProjection:
    def test_projection_attributes_cover_select_and_where(self):
        cat = catalog()
        query = paper_query(cat)
        assert projection_attributes(query, "S") == ("B1", "B2")
        assert projection_attributes(query, "R") == ("A1", "A2")
        assert projection_attributes(query, "T") == ()

    def test_project_values(self):
        cat = catalog()
        query = paper_query(cat)
        tup = make_tuple(cat, "S", ("b", 2, "c"))
        assert project(query, tup, cat.get("S")) == (("B1", "b"), ("B2", 2))


class TestProjectionTracker:
    def test_paper_example2_duplicate_suppressed(self):
        """Tuples (b,2,c) and (b,2,e) of S share the projection (b,2)."""
        cat = catalog()
        query = paper_query(cat)
        tracker = ProjectionTracker()
        schema = cat.get("S")
        first = make_tuple(cat, "S", ("b", 2, "c"))
        second = make_tuple(cat, "S", ("b", 2, "e"))
        assert tracker.admit_and_record(query, first, schema)
        assert not tracker.admit_and_record(query, second, schema)
        assert len(tracker) == 1

    def test_different_projection_admitted(self):
        cat = catalog()
        query = paper_query(cat)
        tracker = ProjectionTracker()
        schema = cat.get("S")
        tracker.admit_and_record(query, make_tuple(cat, "S", ("b", 2, "c")), schema)
        assert tracker.admit_and_record(
            query, make_tuple(cat, "S", ("x", 2, "c")), schema
        )
        assert tracker.admit_and_record(
            query, make_tuple(cat, "S", ("b", 3, "c")), schema
        )
        assert len(tracker) == 3

    def test_values_outside_projection_ignored(self):
        cat = catalog()
        query = paper_query(cat)
        tracker = ProjectionTracker()
        schema = cat.get("R")
        tracker.admit_and_record(query, make_tuple(cat, "R", (1, 2, 3)), schema)
        # Same A1/A2 but different A3 (A3 is not in select/where): still a duplicate.
        assert not tracker.admit_and_record(
            query, make_tuple(cat, "R", (1, 2, 99)), schema
        )
