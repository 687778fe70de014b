"""Backend-conformance suite for every registered tuple-store backend.

Every implementation of :class:`repro.data.backends.StoreBackend` must obey
the same contract — publication ordering, strict expiry cutoffs, prefix
matching with identity deduplication, re-homing round-trips and counter
consistency — so the whole suite is parametrized over the registry.  A new
backend only has to register in :func:`repro.data.backends.make_store` to be
held to the same invariants.
"""

from __future__ import annotations

import pytest

from repro.data.append_log import AppendLogTupleStore
from repro.data.backends import (
    BACKEND_NAMES,
    SEPARATOR,
    StoreBackend,
    make_store,
)
from repro.data.schema import RelationSchema
from repro.data.tuples import Tuple
from repro.errors import ConfigurationError


@pytest.fixture
def schema():
    return RelationSchema("R", ["a", "b"])


@pytest.fixture(params=BACKEND_NAMES)
def store(request):
    backend = make_store(request.param)
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
        assert store.has_key("k")
        assert not store.has_key("missing")

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
        assert not store.has_key("k")
        assert len(store) == 0
        assert store.remove_key("k") == []

    @pytest.mark.parametrize("destination", BACKEND_NAMES)
    def test_rehoming_round_trip_lands_in_any_backend(
        self, store, schema, destination
    ):
        """Records extracted from one backend replay into any other kind."""
        key = key_for("R", "a", 1)
        tuples = [
            make_tuple(schema, (seq, seq), seq, pub_time=float(seq))
            for seq in (3, 1, 2)
        ]
        for tup in tuples:
            store.add(key, tup, now=10.0 + tup.sequence)
        target = make_store(destination)
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
        assert not store.has_key("k")
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


class TestBatchOperations:
    """The set-at-a-time APIs must agree exactly with their per-item forms."""

    def test_add_batch_matches_per_item_adds(self, store, schema):
        entries = [
            (key_for("R", "a", seq % 3), make_tuple(schema, (seq, seq), seq), float(seq))
            for seq in range(1, 9)
        ]
        records = store.add_batch(entries)
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
        batched = store.match_batch(probes)
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
        mapping = store.tuples_for_prefixes(prefixes)
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


class TestAppendLogCompaction:
    def test_invalid_thresholds_are_rejected(self):
        with pytest.raises(ConfigurationError):
            AppendLogTupleStore(compact_min_dead=0)
        with pytest.raises(ConfigurationError):
            AppendLogTupleStore(compact_dead_fraction=0.0)
        with pytest.raises(ConfigurationError):
            AppendLogTupleStore(compact_dead_fraction=1.5)

    def test_append_log_honours_aggressive_thresholds(self, schema):
        store = AppendLogTupleStore(compact_min_dead=1, compact_dead_fraction=0.01)
        try:
            assert store.compact_min_dead == 1
            for seq in range(1, 21):
                store.add(
                    "k",
                    make_tuple(schema, (seq, seq), seq, pub_time=float(seq)),
                    now=0.0,
                )
            assert store.remove_published_before(11.0) == 10
            # With a tombstone floor of one, a single sweep must compact.
            assert store.compactions >= 1
            assert [t.sequence for t in store.tuples_for_key("k")] == list(
                range(11, 21)
            )
        finally:
            store.close()
