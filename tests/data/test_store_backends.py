"""Backend-conformance suite for every registered tuple-store backend.

Every implementation of :class:`repro.data.backends.StoreBackend` must obey
the same contract — publication ordering, strict expiry cutoffs, prefix
matching with identity deduplication, re-homing round-trips and counter
consistency — so the whole suite is parametrized over the registry.  A new
backend only has to register in :func:`repro.data.backends.make_store` to be
held to the same invariants.  The sqlite backend runs twice: with its default
in-memory database and with the database in a file, the configuration that
lets a node's store outgrow RAM.
"""

from __future__ import annotations

import itertools

import pytest

from repro.data.backends import (
    BACKEND_NAMES,
    SEPARATOR,
    StoreBackend,
    make_store,
)
from repro.data.schema import RelationSchema
from repro.data.sqlite_store import SqliteTupleStore
from repro.data.tuples import Tuple
from repro.errors import ConfigurationError

#: The sqlite backend with its database in a file rather than ``:memory:``.
ON_DISK_SQLITE = "sqlite-file"

#: Every store the conformance suite holds to the contract.
STORE_KINDS = BACKEND_NAMES + (ON_DISK_SQLITE,)

_database_names = itertools.count()


def open_store(kind: str, directory) -> StoreBackend:
    """A fresh store of ``kind``; on-disk databases go under ``directory``."""
    if kind == ON_DISK_SQLITE:
        return SqliteTupleStore(str(directory / f"store{next(_database_names)}.db"))
    return make_store(kind)


@pytest.fixture
def schema():
    return RelationSchema("R", ["a", "b"])


@pytest.fixture(params=STORE_KINDS)
def store(request, tmp_path):
    backend = open_store(request.param, tmp_path)
    yield backend
    backend.close()


def key_for(relation: str, attribute: str, value) -> str:
    return f"{relation}{SEPARATOR}{attribute}{SEPARATOR}{value!r}"


def prefix_for(relation: str, attribute: str) -> str:
    return f"{relation}{SEPARATOR}{attribute}{SEPARATOR}"


def make_tuple(schema, values, seq, pub_time=0.0):
    return Tuple.from_schema(schema, values, pub_time=pub_time, sequence=seq)


class TestFactory:
    def test_every_registered_backend_constructs(self):
        for name in BACKEND_NAMES:
            backend = make_store(name)
            assert isinstance(backend, StoreBackend)
            assert backend.name == name
            backend.close()

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown store backend"):
            make_store("tape-drive")


class TestConformance:
    def test_exact_key_lookup(self, store, schema):
        tup = make_tuple(schema, (1, 2), 1)
        record = store.add("k", tup, now=0.0)
        assert record.tuple == tup
        assert record.key == "k"
        assert store.tuples_for_key("k") == [tup]
        assert store.tuples_for_key("missing") == []

    def test_publication_ordering_despite_insertion_order(self, store, schema):
        late = make_tuple(schema, (1, 1), 3, pub_time=5.0)
        early = make_tuple(schema, (2, 2), 1, pub_time=1.0)
        middle = make_tuple(schema, (3, 3), 2, pub_time=3.0)
        for tup in (late, early, middle):
            store.add("k", tup, now=0.0)
        assert [t.sequence for t in store.tuples_for_key("k")] == [1, 2, 3]
        assert [r.tuple.sequence for r in store.records_for_key("k")] == [1, 2, 3]

    def test_prefix_match_dedups_and_orders(self, store, schema):
        shared = make_tuple(schema, (1, 2), 1, pub_time=2.0)
        store.add(key_for("R", "a", 1), shared, now=0.0)
        store.add(key_for("R", "a", 2), shared, now=0.0)  # same publication
        other = make_tuple(schema, (9, 9), 2, pub_time=1.0)
        store.add(key_for("R", "a", 9), other, now=0.0)
        store.add(key_for("S", "a", 1), make_tuple(schema, (7, 7), 3), now=0.0)
        result = store.tuples_for_prefix(prefix_for("R", "a"))
        assert [t.sequence for t in result] == [2, 1]  # ordered, deduplicated
        assert store.tuples_for_prefix(prefix_for("R", "zzz")) == []

    def test_arbitrary_prefix_fallback(self, store, schema):
        store.add("plain-key-1", make_tuple(schema, (1, 1), 1), now=0.0)
        store.add("plain-key-2", make_tuple(schema, (2, 2), 2), now=0.0)
        store.add("other", make_tuple(schema, (3, 3), 3), now=0.0)
        result = store.tuples_for_prefix("plain-key")
        assert sorted(t.sequence for t in result) == [1, 2]

    def test_remove_published_before_is_strict(self, store, schema):
        store.add("k", make_tuple(schema, (1, 1), 1, pub_time=1.0), now=0.0)
        store.add("k", make_tuple(schema, (2, 2), 2, pub_time=2.0), now=0.0)
        store.add("j", make_tuple(schema, (3, 3), 3, pub_time=3.0), now=0.0)
        assert store.remove_published_before(2.0) == 1
        assert [t.sequence for t in store.tuples_for_key("k")] == [2]
        assert len(store) == 2
        assert store.remove_published_before(2.0) == 0

    def test_remove_sequenced_before_is_strict(self, store, schema):
        # Sequence order deliberately disagrees with publication order.
        store.add("k", make_tuple(schema, (1, 1), 5, pub_time=1.0), now=0.0)
        store.add("k", make_tuple(schema, (2, 2), 2, pub_time=2.0), now=0.0)
        store.add("j", make_tuple(schema, (3, 3), 9, pub_time=0.5), now=0.0)
        assert store.remove_sequenced_before(5) == 1
        assert sorted(t.sequence for t in store.tuples_for_key("k")) == [5]
        assert store.remove_sequenced_before(5) == 0
        assert len(store) == 2

    def test_expiry_interleaved_with_new_writes(self, store, schema):
        for seq in range(1, 6):
            store.add(
                "k", make_tuple(schema, (seq, seq), seq, pub_time=float(seq)), now=0.0
            )
        assert store.remove_published_before(3.0) == 2
        # Writes after a GC tick must be seen by the next tick.
        store.add("k", make_tuple(schema, (9, 9), 9, pub_time=3.5), now=0.0)
        assert store.remove_published_before(4.0) == 2  # pub 3.0 and 3.5
        assert [t.sequence for t in store.tuples_for_key("k")] == [4, 5]

    def test_remove_older_than_uses_stored_at(self, store, schema):
        store.add("k", make_tuple(schema, (1, 1), 1), now=0.0)
        store.add("k", make_tuple(schema, (2, 2), 2), now=5.0)
        assert store.remove_older_than("k", cutoff=5.0) == 1
        assert [t.sequence for t in store.tuples_for_key("k")] == [2]
        assert store.remove_older_than("missing", cutoff=5.0) == 0

    def test_remove_key_returns_records_in_publication_order(self, store, schema):
        store.add("k", make_tuple(schema, (2, 2), 2, pub_time=2.0), now=0.5)
        store.add("k", make_tuple(schema, (1, 1), 1, pub_time=1.0), now=0.25)
        removed = store.remove_key("k")
        assert [r.tuple.sequence for r in removed] == [1, 2]
        assert [r.stored_at for r in removed] == [0.25, 0.5]
        assert store.tuples_for_key("k") == []
        assert len(store) == 0
        assert store.remove_key("k") == []

    @pytest.mark.parametrize("destination", STORE_KINDS)
    def test_rehoming_round_trip_lands_in_any_backend(
        self, store, schema, destination, tmp_path
    ):
        """Records extracted from one backend replay into any other kind."""
        key = key_for("R", "a", 1)
        tuples = [
            make_tuple(schema, (seq, seq), seq, pub_time=float(seq))
            for seq in (3, 1, 2)
        ]
        for tup in tuples:
            store.add(key, tup, now=10.0 + tup.sequence)
        target = open_store(destination, tmp_path)
        try:
            for record in store.remove_key(key):
                target.add(record.key, record.tuple, record.stored_at)
            assert len(store) == 0
            assert [t.sequence for t in target.tuples_for_key(key)] == [1, 2, 3]
            assert [r.stored_at for r in target.records_for_key(key)] == [
                11.0,
                12.0,
                13.0,
            ]
            assert target.tuples_for_prefix(prefix_for("R", "a")) == sorted(
                tuples, key=lambda t: t.sequence
            )
        finally:
            target.close()

    def test_len_and_distinct_consistency(self, store, schema):
        shared = make_tuple(schema, (1, 2), 1)
        store.add("k1", shared, now=0.0)
        store.add("k2", shared, now=0.0)
        store.add("k1", make_tuple(schema, (3, 4), 2), now=0.0)
        assert len(store) == 3
        assert store.distinct_tuples() == 2
        store.remove_key("k2")
        assert len(store) == 2
        assert store.distinct_tuples() == 2  # identity 1 still lives under k1
        store.remove_key("k1")
        assert len(store) == 0
        assert store.distinct_tuples() == 0

    def test_cumulative_stored_survives_clear(self, store, schema):
        for seq in range(5):
            store.add("k", make_tuple(schema, (seq, seq), seq), now=0.0)
        assert store.cumulative_stored == 5
        store.clear()
        assert len(store) == 0
        assert store.cumulative_stored == 5
        assert store.tuples_for_key("k") == []
        store.add("k", make_tuple(schema, (1, 1), 99), now=0.0)
        assert len(store) == 1
        assert store.cumulative_stored == 6

    def test_keys_and_iteration(self, store, schema):
        store.add("a", make_tuple(schema, (1, 1), 1), now=0.0)
        store.add("b", make_tuple(schema, (2, 2), 2), now=0.0)
        assert sorted(store.keys()) == ["a", "b"]
        assert sorted(r.tuple.sequence for r in store) == [1, 2]

    def test_empty_store_edge_cases(self, store):
        assert len(store) == 0
        assert store.distinct_tuples() == 0
        assert list(store.keys()) == []
        assert list(store) == []
        assert store.remove_published_before(100.0) == 0
        assert store.remove_sequenced_before(100) == 0
        assert store.tuples_for_prefix("anything") == []
        store.clear()

    def test_values_round_trip_exactly(self, store, schema):
        """Backends that serialize (sqlite) must preserve value types."""
        tup = make_tuple(schema, ("text", 42), 1)
        store.add("k", tup, now=0.0)
        (stored,) = store.tuples_for_key("k")
        assert stored.values == ("text", 42)
        assert isinstance(stored.values[1], int)
        assert stored.identity == tup.identity

    @pytest.mark.parametrize(
        "values",
        [
            (-(2**63), 2**63 - 1),
            (2**70, -(2**70)),
            (1.5, float("-inf")),
            ("ünïcode", ""),
            (None, True),
            (b"\x00raw", False),
            ((1, 2), frozenset({3})),
        ],
        ids=["int64-bounds", "big-ints", "floats", "text", "none-bool", "bytes", "containers"],
    )
    def test_value_kinds_round_trip(self, store, schema, values):
        """Every kind of attribute value comes back equal and of the same type."""
        store.add(key_for("R", "a", 1), make_tuple(schema, values, 1), now=0.0)
        for stored in (
            store.tuples_for_key(key_for("R", "a", 1))[0],
            store.tuples_for_prefix(prefix_for("R", "a"))[0],
        ):
            assert stored.values == values
            assert [type(v) for v in stored.values] == [type(v) for v in values]

    def test_records_carry_key_and_stored_at(self, store, schema):
        store.add("k", make_tuple(schema, (1, 1), 1, pub_time=1.0), now=2.5)
        store.add("j", make_tuple(schema, (2, 2), 2, pub_time=2.0), now=7.0)
        (record,) = store.records_for_key("k")
        assert (record.key, record.stored_at, record.tuple.sequence) == ("k", 2.5, 1)
        assert sorted((r.key, r.stored_at) for r in store) == [
            ("j", 7.0),
            ("k", 2.5),
        ]

    def test_remove_older_than_touches_only_its_key(self, store, schema):
        store.add("k", make_tuple(schema, (1, 1), 1), now=0.0)
        store.add("j", make_tuple(schema, (2, 2), 2), now=0.0)
        assert store.remove_older_than("k", cutoff=1.0) == 1
        assert store.tuples_for_key("k") == []
        assert [t.sequence for t in store.tuples_for_key("j")] == [2]
        assert len(store) == 1

    def test_expiry_drops_emptied_keys(self, store, schema):
        store.add("old", make_tuple(schema, (1, 1), 1, pub_time=1.0), now=0.0)
        store.add("new", make_tuple(schema, (2, 2), 2, pub_time=5.0), now=0.0)
        store.add("mixed", make_tuple(schema, (3, 3), 3, pub_time=1.0), now=0.0)
        store.add("mixed", make_tuple(schema, (4, 4), 4, pub_time=5.0), now=0.0)
        assert store.remove_published_before(2.0) == 2
        assert sorted(store.keys()) == ["mixed", "new"]
        assert store.remove_sequenced_before(10) == 2
        assert list(store.keys()) == []
        assert len(store) == 0

    def test_expiry_removes_every_slot_of_a_publication(self, store, schema):
        shared = make_tuple(schema, (1, 1), 1, pub_time=1.0)
        store.add(key_for("R", "a", 1), shared, now=0.0)
        store.add(key_for("R", "b", 1), shared, now=0.0)
        store.add(
            key_for("R", "a", 2), make_tuple(schema, (2, 2), 2, pub_time=2.0), now=0.0
        )
        assert store.distinct_tuples() == 2
        assert store.remove_sequenced_before(2) == 2  # both slots of seq 1
        assert len(store) == 1
        assert store.distinct_tuples() == 1
        assert store.tuples_for_prefix(prefix_for("R", "b")) == []

    def test_clear_discards_memoised_prefix_results(self, store, schema):
        prefix = prefix_for("R", "a")
        store.add(key_for("R", "a", 1), make_tuple(schema, (1, 1), 1), now=0.0)
        assert len(store.tuples_for_prefix(prefix)) == 1
        assert len(store.match_batch(probes=[("prefix", prefix)])[0]) == 1
        store.clear()
        assert store.tuples_for_prefix(prefix) == []
        assert store.match_batch(probes=[("prefix", prefix)]) == [[]]
        fresh = make_tuple(schema, (2, 2), 2)
        store.add(key_for("R", "a", 2), fresh, now=0.0)
        assert store.tuples_for_prefix(prefix) == [fresh]

    def test_lookup_results_belong_to_the_caller(self, store, schema):
        """Mutating a returned list must not leak into the store's memo."""
        prefix = prefix_for("R", "a")
        tup = make_tuple(schema, (1, 1), 1)
        store.add(key_for("R", "a", 1), tup, now=0.0)
        store.tuples_for_prefix(prefix).clear()
        store.tuples_for_key(key_for("R", "a", 1)).clear()
        store.match_batch(probes=[("prefix", prefix)])[0].append(tup)
        assert store.tuples_for_prefix(prefix) == [tup]
        assert store.match_batch(probes=[("prefix", prefix)]) == [[tup]]
        assert store.tuples_for_key(key_for("R", "a", 1)) == [tup]


class TestBatchOperations:
    """The set-at-a-time APIs must agree exactly with their per-item forms.

    Each batch method is called by keyword, so a backend that renames a
    batch parameter fails here.
    """

    def test_add_batch_matches_per_item_adds(self, store, schema):
        entries = [
            (key_for("R", "a", seq % 3), make_tuple(schema, (seq, seq), seq), float(seq))
            for seq in range(1, 9)
        ]
        records = store.add_batch(entries=entries)
        assert [r.tuple.sequence for r in records] == list(range(1, 9))
        assert [r.key for r in records] == [key for key, _, _ in entries]
        assert [r.stored_at for r in records] == [now for _, _, now in entries]
        assert len(store) == 8
        assert store.cumulative_stored == 8
        expected = make_store(store.name)
        try:
            for key, tup, now in entries:
                expected.add(key, tup, now)
            for key in {key for key, _, _ in entries}:
                assert store.tuples_for_key(key) == expected.tuples_for_key(key)
        finally:
            expected.close()

    def test_match_batch_agrees_with_per_probe_lookups(self, store, schema):
        shared = make_tuple(schema, (1, 2), 1, pub_time=2.0)
        store.add(key_for("R", "a", 1), shared, now=0.0)
        store.add(key_for("R", "a", 2), shared, now=0.0)
        store.add(key_for("R", "a", 9), make_tuple(schema, (9, 9), 2, pub_time=1.0), now=0.0)
        store.add(key_for("S", "b", 1), make_tuple(schema, (7, 7), 3), now=0.0)
        store.add("plain-key", make_tuple(schema, (4, 4), 4), now=0.0)
        probes = [
            ("prefix", prefix_for("R", "a")),
            ("key", key_for("R", "a", 1)),
            ("prefix", prefix_for("S", "b")),
            ("key", "missing-key"),
            ("prefix", prefix_for("R", "zzz")),
            ("prefix", "plain"),
            ("prefix", prefix_for("R", "a")),  # repeated probe
        ]
        batched = store.match_batch(probes=probes)
        assert len(batched) == len(probes)
        for (kind, text), result in zip(probes, batched):
            if kind == "key":
                assert result == store.tuples_for_key(text)
            else:
                assert result == store.tuples_for_prefix(text)

    def test_match_batch_rejects_unknown_probe_kind(self, store):
        with pytest.raises(ConfigurationError, match="unknown probe kind"):
            store.match_batch([("range", "whatever")])

    def test_key_probe_keeps_duplicate_identities(self, store, schema):
        # The contract allows the same publication under one key twice; key
        # probes must not deduplicate.
        tup = make_tuple(schema, (1, 1), 1)
        store.add("k", tup, now=0.0)
        store.add("k", tup, now=1.0)
        (result,) = store.match_batch([("key", "k")])
        assert result == [tup, tup]

    def test_tuples_for_prefixes_maps_each_prefix(self, store, schema):
        store.add(key_for("R", "a", 1), make_tuple(schema, (1, 1), 1), now=0.0)
        store.add(key_for("R", "b", 2), make_tuple(schema, (2, 2), 2), now=0.0)
        prefixes = [prefix_for("R", "a"), prefix_for("R", "b"), prefix_for("T", "a")]
        mapping = store.tuples_for_prefixes(prefixes=prefixes)
        assert set(mapping) == set(prefixes)
        for prefix in prefixes:
            assert mapping[prefix] == store.tuples_for_prefix(prefix)

    def test_batch_results_stay_consistent_across_writes_and_gc(self, store, schema):
        """Memoised bucket results must track interleaved mutation exactly."""
        prefix = prefix_for("R", "a")
        for seq in range(1, 11):
            store.add(
                key_for("R", "a", seq % 4),
                make_tuple(schema, (seq, seq), seq, pub_time=float(seq)),
                now=0.0,
            )
        first = store.tuples_for_prefix(prefix)
        assert [t.sequence for t in first] == list(range(1, 11))
        # Write after the result was memoised — including one out of
        # publication order.
        store.add(
            key_for("R", "a", 1),
            make_tuple(schema, (12, 12), 12, pub_time=12.0),
            now=0.0,
        )
        store.add(
            key_for("R", "a", 2),
            make_tuple(schema, (11, 11), 11, pub_time=5.5),
            now=0.0,
        )
        assert [t.sequence for t in store.tuples_for_prefix(prefix)] == [
            1, 2, 3, 4, 5, 11, 6, 7, 8, 9, 10, 12,
        ]
        # Ranged GC, keyed removal and re-probing must all agree again.
        assert store.remove_published_before(5.0) == 4
        store.remove_key(key_for("R", "a", 3))
        (after,) = store.match_batch([("prefix", prefix)])
        # seq 3 (already expired) and seq 7 lived under value 3.
        assert {t.sequence for t in after} == {5, 6, 8, 9, 10, 11, 12}
        assert after == store.tuples_for_prefix(prefix)

    def test_remove_expired_combines_both_cutoffs(self, store, schema):
        for seq in range(1, 7):
            store.add(
                "k",
                make_tuple(schema, (seq, seq), seq, pub_time=float(seq)),
                now=0.0,
            )
        # pub_time < 3.0 removes 1, 2; sequence < 5 additionally removes 3, 4.
        assert store.remove_expired(published_before=3.0, sequenced_before=5) == 4
        assert [t.sequence for t in store.tuples_for_key("k")] == [5, 6]
        assert store.remove_expired() == 0

    def test_remove_expired_matches_single_cutoff_forms(self, store, schema):
        for seq in range(1, 5):
            store.add(
                "k",
                make_tuple(schema, (seq, seq), seq, pub_time=float(seq)),
                now=0.0,
            )
        assert store.remove_expired(published_before=2.0) == 1
        assert store.remove_expired(sequenced_before=4) == 2
        assert [t.sequence for t in store.tuples_for_key("k")] == [4]

    def test_empty_batches(self, store, schema):
        store.add("k", make_tuple(schema, (1, 1), 1), now=0.0)
        assert store.add_batch(entries=[]) == []
        assert store.match_batch(probes=[]) == []
        assert store.tuples_for_prefixes(prefixes=[]) == {}
        assert store.remove_expired() == 0
        assert len(store) == 1

    def test_match_batch_beyond_one_statement_chunk(self, store, schema):
        """A batch of ~1,000 keys and buckets matches its per-probe answers."""
        entries = [
            (key_for(f"R{seq % 450}", "a", seq % 7), make_tuple(schema, (seq, seq), seq), 0.0)
            for seq in range(1, 1001)
        ]
        store.add_batch(entries=entries)
        probes = [("key", key) for key, _, _ in entries[::2]]
        probes += [("prefix", prefix_for(f"R{n}", "a")) for n in range(460)]
        batched = store.match_batch(probes=probes)
        assert sum(map(len, batched)) == 500 + 1000
        for (kind, text), result in zip(probes, batched):
            if kind == "key":
                assert result == store.tuples_for_key(text)
            else:
                assert result == store.tuples_for_prefix(text)


class TestOnDiskSqlite:
    def test_records_land_in_the_database_file(self, schema, tmp_path):
        path = tmp_path / "node.db"
        store = SqliteTupleStore(str(path))
        try:
            empty = path.stat().st_size
            store.add_batch(
                entries=[
                    (key_for("R", "a", seq), make_tuple(schema, (seq, "x" * 200), seq), 0.0)
                    for seq in range(500)
                ]
            )
            store.flush()
            assert path.stat().st_size > empty + 500 * 200
            assert len(store.tuples_for_prefix(prefix_for("R", "a"))) == 500
        finally:
            store.close()

