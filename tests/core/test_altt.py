"""Tests for the attribute-level tuple table (ALTT)."""

from repro.core.altt import AttributeLevelTupleTable
from repro.data.schema import RelationSchema
from repro.data.store import TupleStore
from repro.data.tuples import Tuple


SCHEMA = RelationSchema("R", ["a"])


def tup(pub_time, sequence):
    return Tuple.from_schema(SCHEMA, (1,), pub_time=pub_time, sequence=sequence)


class TestALTT:
    def test_add_and_find(self):
        table = AttributeLevelTupleTable(delta=10)
        table.add("R.a", tup(1.0, 1), now=1.0)
        assert len(table.find("R.a", now=2.0)) == 1
        assert table.find("other", now=2.0) == []

    def test_delta_expiry_on_find(self):
        table = AttributeLevelTupleTable(delta=5)
        table.add("R.a", tup(1.0, 1), now=1.0)
        assert table.find("R.a", now=5.9)
        assert table.find("R.a", now=7.0) == []

    def test_explicit_expire_removes_entries(self):
        # Expiry cuts on publication time, at now - Δ - max_transit.
        table = AttributeLevelTupleTable(delta=5, max_transit=2)
        table.add("R.a", tup(1.0, 1), now=3.0)
        table.add("R.a", tup(4.0, 2), now=4.0)
        # Received at 3.0, the first tuple is still within Δ of 8.0: a cut
        # at now - Δ on publication time would lose it.
        assert table.expire(now=8.0) == 0
        assert len(table.find("R.a", now=8.0)) == 2
        assert table.expire(now=8.5) == 1
        assert [t.sequence for t in table.find("R.a", now=8.5)] == [2]
        assert len(table) == 1

    def test_infinite_delta_keeps_everything(self):
        table = AttributeLevelTupleTable(delta=None)
        table.add("R.a", tup(1.0, 1), now=1.0)
        assert table.expire(now=1e9) == 0
        assert table.find("R.a", now=1e9)

    def test_publication_time_filter(self):
        table = AttributeLevelTupleTable(delta=None)
        table.add("R.a", tup(pub_time=3.0, sequence=1), now=3.0)
        table.add("R.a", tup(pub_time=9.0, sequence=2), now=9.0)
        recent = table.find("R.a", now=10.0, published_at_or_after=5.0)
        assert len(recent) == 1
        assert recent[0].pub_time == 9.0
        # The boundary is inclusive (pubT >= insT in the trigger condition).
        assert len(table.find("R.a", now=10.0, published_at_or_after=3.0)) == 2

    def test_counters_and_clear(self):
        table = AttributeLevelTupleTable(delta=None)
        for i in range(4):
            table.add("k", tup(float(i), i), now=float(i))
        assert len(table) == 4
        table.clear()
        assert len(table) == 0

    def test_keeps_no_prefix_index(self):
        # Lookups are by exact key, so the store's prefix bookkeeping is
        # skipped; find, expiry, re-homing and a (scanning) prefix lookup
        # answer as the indexed memory store does.
        table = AttributeLevelTupleTable(delta=5)
        store = TupleStore()
        keys = ["R\x1fa", "R\x1fa\x1f1", "S\x1fb\x1f1"]
        for index in range(9):
            for target in (table, store):
                target.add(keys[index % 3], tup(float(index), index), now=index)
        assert table._keys_by_prefix == {}
        assert table._unprefixed_keys == set()
        for key in keys:
            assert table.find(key, now=8.0) == store.tuples_for_key(key)[-2:]
        for prefix in ("R\x1fa\x1f", "R\x1f", "S\x1fb\x1f"):
            assert table.tuples_for_prefix(prefix) == store.tuples_for_prefix(prefix)
        assert table.expire(now=9.0) == 4
        assert [t.sequence for t in table.find(keys[0], now=9.0)] == [6]
        moved = table.remove_key(keys[1])
        assert [record.tuple.sequence for record in moved] == [4, 7]
        assert [record.stored_at for record in moved] == [4, 7]
        assert list(table.keys()) == [keys[0], keys[2]]
        assert len(table) == 3
        assert table._keys_by_prefix == {} and table._prefix_cache == {}
