"""Tests for the per-node tuple store."""

import pytest

from repro.data.schema import RelationSchema
from repro.data.store import TupleStore
from repro.data.tuples import Tuple


@pytest.fixture
def schema():
    return RelationSchema("R", ["a", "b"])


def make_tuple(schema, values, seq, pub_time=0.0):
    return Tuple.from_schema(schema, values, pub_time=pub_time, sequence=seq)


def distinct_tuples(store):
    """Distinct publications held by ``store``."""
    return len({record.identity for record in store})


class TestTupleStore:
    def test_add_and_lookup_by_key(self, schema):
        store = TupleStore()
        tup = make_tuple(schema, (1, 2), 1)
        store.add("R.a=1", tup, now=0.0)
        assert store.tuples_for_key("R.a=1") == [tup]
        assert store.tuples_for_key("other") == []

    def test_len_and_clear(self, schema):
        store = TupleStore()
        for seq in range(5):
            store.add("k", make_tuple(schema, (seq, seq), seq), now=float(seq))
        assert len(store) == 5
        store.clear()
        assert len(store) == 0
        assert distinct_tuples(store) == 0

    def test_same_tuple_under_two_keys_costs_two_slots(self, schema):
        store = TupleStore()
        tup = make_tuple(schema, (1, 2), 1)
        store.add("k1", tup, now=0.0)
        store.add("k2", tup, now=0.0)
        assert len(store) == 2
        assert distinct_tuples(store) == 1

    def test_prefix_lookup_deduplicates(self, schema):
        store = TupleStore()
        tup = make_tuple(schema, (1, 2), 1)
        store.add("R\x1fa\x1f1", tup, now=0.0)
        store.add("R\x1fa\x1f2", make_tuple(schema, (2, 2), 2), now=0.0)
        store.add("S\x1fa\x1f1", make_tuple(schema, (3, 3), 3), now=0.0)
        result = store.tuples_for_prefix("R\x1fa\x1f")
        assert len(result) == 2

    def test_remove_older_than(self, schema):
        store = TupleStore()
        store.add("k", make_tuple(schema, (1, 1), 1), now=0.0)
        store.add("k", make_tuple(schema, (2, 2), 2), now=5.0)
        removed = store.remove_older_than("k", cutoff=3.0)
        assert removed == 1
        assert len(store.tuples_for_key("k")) == 1

    def test_remove_older_than_missing_key(self, schema):
        store = TupleStore()
        assert store.remove_older_than("nope", 1.0) == 0

    def test_remove_published_before(self, schema):
        store = TupleStore()
        store.add("k", make_tuple(schema, (1, 1), 1, pub_time=1.0), now=0.0)
        store.add("k", make_tuple(schema, (2, 2), 2, pub_time=9.0), now=0.0)
        assert store.remove_published_before(5.0) == 1
        assert [t.sequence for t in store.tuples_for_key("k")] == [2]

    def test_keys_and_iteration(self, schema):
        store = TupleStore()
        store.add("k1", make_tuple(schema, (1, 1), 1), now=0.0)
        store.add("k2", make_tuple(schema, (2, 2), 2), now=0.0)
        assert set(store.keys()) == {"k1", "k2"}
        assert len(list(store)) == 2

    def test_records_expose_metadata(self, schema):
        store = TupleStore()
        store.add("k", make_tuple(schema, (1, 1), 7), now=3.5)
        (record,) = store
        assert record.stored_at == 3.5
        assert record.identity == ("R", 7)
        assert record.key == "k"


# ---------------------------------------------------------------------------
# Randomized equivalence against a naive scan-based reference
# ---------------------------------------------------------------------------
class NaiveStore:
    """The original O(total-keys) scan semantics, used as an oracle."""

    def __init__(self):
        self.by_key = {}

    def add(self, key, tup, now):
        self.by_key.setdefault(key, []).append((tup, now))

    def remove_older_than(self, key, cutoff):
        records = self.by_key.get(key, [])
        kept = [(t, s) for t, s in records if s >= cutoff]
        removed = len(records) - len(kept)
        if kept:
            self.by_key[key] = kept
        elif key in self.by_key:
            del self.by_key[key]
        return removed

    def remove_published_before(self, cutoff):
        removed = 0
        for key in list(self.by_key):
            records = self.by_key[key]
            kept = [(t, s) for t, s in records if t.pub_time >= cutoff]
            removed += len(records) - len(kept)
            if kept:
                self.by_key[key] = kept
            else:
                del self.by_key[key]
        return removed

    def remove_sequenced_before(self, cutoff):
        removed = 0
        for key in list(self.by_key):
            records = self.by_key[key]
            kept = [(t, s) for t, s in records if t.sequence >= cutoff]
            removed += len(records) - len(kept)
            if kept:
                self.by_key[key] = kept
            else:
                del self.by_key[key]
        return removed

    def tuples_for_key(self, key):
        return sorted(
            (t for t, _ in self.by_key.get(key, [])),
            key=lambda t: (t.pub_time, t.sequence),
        )

    def tuples_for_prefix(self, prefix):
        seen, result = set(), []
        for key, records in self.by_key.items():
            if not key.startswith(prefix):
                continue
            for tup, _ in records:
                if tup.identity not in seen:
                    seen.add(tup.identity)
                    result.append(tup)
        return sorted(result, key=lambda t: (t.pub_time, t.sequence))

    def __len__(self):
        return sum(len(records) for records in self.by_key.values())

    def distinct_tuples(self):
        return len({t.identity for records in self.by_key.values() for t, _ in records})


def in_flight_stream(rng, steps):
    """``steps`` of (clock, delivered tuple or None): publications numbered
    as the engine numbers them (global sequence, time never falling),
    delivered in a random order, as delayed messages arrive."""
    clock, sequence, in_flight = 0.0, 0, []
    for _ in range(steps):
        clock += rng.random()
        if rng.random() < 0.55:
            sequence += 1
            in_flight.append((sequence, clock))
        delivered = None
        if in_flight and rng.random() < 0.9:
            delivered = in_flight.pop(rng.randrange(len(in_flight)))
        yield clock, delivered


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
def test_indexed_store_matches_naive_scan_on_random_workload(schema, seed):
    """Prefix index, heap expiry and counters agree with the scan oracle."""
    import random

    rng = random.Random(seed)
    store, naive = TupleStore(), NaiveStore()
    relations = ["R", "S"]
    attributes = ["a", "b"]
    for step, (clock, delivered) in enumerate(in_flight_stream(rng, 400)):
        op = rng.random()
        if op < 0.55 and delivered is not None:
            seq, pub_time = delivered
            tup = make_tuple(
                schema, (rng.randint(0, 5), rng.randint(0, 5)), seq,
                pub_time=pub_time,
            )
            key = (
                f"{rng.choice(relations)}\x1f{rng.choice(attributes)}"
                f"\x1f{rng.randint(0, 9)!r}"
            )
            store.add(key, tup, now=clock)
            naive.add(key, tup, now=clock)
        elif op < 0.7:
            cutoff = clock - rng.uniform(0.0, 20.0)
            assert store.remove_published_before(cutoff) == \
                naive.remove_published_before(cutoff)
        elif op < 0.8:
            cutoff = step // 2 - rng.randint(0, 50)
            assert store.remove_sequenced_before(cutoff) == \
                naive.remove_sequenced_before(cutoff)
        elif op < 0.9:
            key = rng.choice(sorted(store.keys())) if len(store) else "none"
            cutoff = clock - rng.uniform(0.0, 10.0)
            assert store.remove_older_than(key, cutoff) == \
                naive.remove_older_than(key, cutoff)
        else:
            prefix = f"{rng.choice(relations)}\x1f{rng.choice(attributes)}\x1f"
            assert store.tuples_for_prefix(prefix) == naive.tuples_for_prefix(prefix)
        # Aggregates stay in lock-step after every operation.
        assert len(store) == len(naive)
        assert distinct_tuples(store) == naive.distinct_tuples()
        assert sorted(store.keys()) == sorted(naive.by_key.keys())
    for key in sorted(naive.by_key):
        assert store.tuples_for_key(key) == naive.tuples_for_key(key)


def test_prefix_results_are_publication_ordered(schema):
    store = TupleStore()
    store.add("R\x1fa\x1f1", make_tuple(schema, (1, 1), 3, pub_time=5.0), now=0.0)
    store.add("R\x1fa\x1f2", make_tuple(schema, (2, 2), 1, pub_time=1.0), now=0.0)
    store.add("R\x1fa\x1f3", make_tuple(schema, (3, 3), 2, pub_time=1.0), now=0.0)
    result = store.tuples_for_prefix("R\x1fa\x1f")
    assert [t.sequence for t in result] == [1, 2, 3]


def test_prefix_cache_invalidated_by_mutations(schema):
    store = TupleStore()
    prefix = "R\x1fa\x1f"
    store.add(prefix + "1", make_tuple(schema, (1, 1), 1, pub_time=1.0), now=1.0)
    assert len(store.tuples_for_prefix(prefix)) == 1
    store.add(prefix + "2", make_tuple(schema, (2, 2), 2, pub_time=2.0), now=2.0)
    assert len(store.tuples_for_prefix(prefix)) == 2
    store.remove_published_before(1.5)
    assert [t.sequence for t in store.tuples_for_prefix(prefix)] == [2]
    store.remove_key(prefix + "2")
    assert store.tuples_for_prefix(prefix) == []


def test_non_canonical_prefix_falls_back_to_scan(schema):
    store = TupleStore()
    store.add("R\x1fa\x1f10", make_tuple(schema, (1, 1), 1), now=0.0)
    store.add("R\x1fa\x1f11", make_tuple(schema, (2, 2), 2), now=0.0)
    store.add("R\x1fa\x1f20", make_tuple(schema, (3, 3), 3), now=0.0)
    store.add("plain-key", make_tuple(schema, (4, 4), 4), now=0.0)
    # A prefix extending into the value component is not a canonical bucket.
    assert len(store.tuples_for_prefix("R\x1fa\x1f1")) == 2
    assert len(store.tuples_for_prefix("plain")) == 1
    assert len(store.tuples_for_prefix("")) == 4
