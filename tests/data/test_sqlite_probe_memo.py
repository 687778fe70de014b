"""The sqlite store's key map and cache: exact under every interleaving, and bounded.

The ``sqlite`` backend answers exact-key probes from one key map, where a key
has an entry exactly while it holds a row, and caches rows of keys and of
canonical buckets under one bound (:mod:`repro.data.sqlite_store`).  The
property test drives random runs of writes, flushes, probes and every kind
of delete.  After each step it checks the map against the ``memory``
backend given the same operations, and after each read it checks the sqlite
result against that backend and a fresh SELECT that does not go through
the cache.  It runs once at the stated bound and once with the bound
lowered so that entries are evicted all the time.

The tuples come from one stream numbered as the engine numbers its
publications: sequence numbers are global and publication times never fall
as they rise (the store contract's premise), while the writes take them in
any order, as delayed deliveries do.  So every expiry cutoff is a head cut
of each cached list, which is what keeps the cache exact.
"""

from __future__ import annotations

import importlib.util
from collections import Counter
from pathlib import Path
from typing import List

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.data import sqlite_store
from repro.data.backends import SEPARATOR, bucket_of, make_store
from repro.data.sqlite_store import PROBE_MEMO_BOUND, SqliteTupleStore
from repro.data.tuples import Tuple


def key_for(relation: str, attribute: str, value) -> str:
    return f"{relation}{SEPARATOR}{attribute}{SEPARATOR}{value!r}"


def prefix_for(relation: str, attribute: str) -> str:
    return f"{relation}{SEPARATOR}{attribute}{SEPARATOR}"


#: A key whose value text is empty: it reads like its own bucket's name.
BUCKET_SHAPED_KEY = prefix_for("R", "a")

#: Value-level keys of two buckets per relation, a key without separators
#: and the bucket-shaped one.
KEYS = [
    key_for(relation, attribute, value)
    for relation in ("R", "S")
    for attribute in ("a", "b")
    for value in (0, 1)
] + ["plain", BUCKET_SHAPED_KEY]

#: The four canonical buckets plus a non-canonical prefix (the scan path).
PREFIXES = [
    prefix_for(relation, attribute)
    for relation in ("R", "S")
    for attribute in ("a", "b")
] + ["R"]

#: Publications 0 … 40 of one stream, at times 0.0 … 20.0.
LAST_PUBLICATION = 40


def publication(sequence: int) -> Tuple:
    """The stream's publication ``sequence``: two per time unit, so that
    publications also sort level on time."""
    relation = "RS"[sequence % 2]
    return Tuple(relation, (sequence,), float(sequence // 2), sequence)


adds = st.tuples(
    st.just("add"),
    st.sampled_from(KEYS),
    st.integers(0, LAST_PUBLICATION),  # a publication, new or stored before
)
steps = st.one_of(
    adds,
    adds,
    st.tuples(st.just("flush")),
    st.tuples(st.just("key"), st.sampled_from(KEYS)),
    st.tuples(st.just("prefix"), st.sampled_from(PREFIXES)),
    st.tuples(
        st.just("expire"),
        st.none() | st.integers(0, LAST_PUBLICATION // 2 + 1).map(float),
        st.none() | st.integers(0, LAST_PUBLICATION + 1),
    ),
    st.tuples(st.just("remove_key"), st.sampled_from(KEYS)),
    st.tuples(st.just("older"), st.sampled_from(KEYS), st.integers(0, 20)),
    st.tuples(st.just("clear")),
)


class CountingConnection:
    """A sqlite connection that counts the statements run through it."""

    def __init__(self, conn):
        self.conn = conn
        self.statements = 0

    def execute(self, *args):
        self.statements += 1
        return self.conn.execute(*args)

    def executemany(self, *args):
        self.statements += 1
        return self.conn.executemany(*args)

    def close(self):
        self.conn.close()


def cached_names(store: SqliteTupleStore) -> List[str]:
    """The names of the cached entries, the oldest cached first."""
    names = {
        entry: name
        for entries in (store._keys, store._buckets)
        for name, entry in entries.items()
    }
    return [names[entry] for entry in store._admitted]


#: The WHERE clause of a prefix match, as the store's scan path writes it.
PREFIX_MATCH = "substr(key, 1, ?) = ?"


def fresh_select(store: SqliteTupleStore, where: str, *parameters) -> List[Tuple]:
    """The matching rows straight from the table, not through the memo.

    Flushes first: that only moves buffered rows into the table, so the
    store answers every later probe the same.
    """
    store.flush()
    rows = store._conn.execute(
        "SELECT rel, sequence, pub_time, publisher, payload FROM records "
        f"WHERE {where} ORDER BY pub_time, sequence, id",
        parameters,
    )
    return [store._tuple_from_row(row) for row in rows]


def deduplicated(tuples: List[Tuple]) -> List[Tuple]:
    seen = set()
    kept = []
    for tup in tuples:
        if tup.identity not in seen:
            seen.add(tup.identity)
            kept.append(tup)
    return kept


def run(steps_to_take, bound: int) -> None:
    sqlite = SqliteTupleStore()
    counting = sqlite._conn = CountingConnection(sqlite._conn)
    memory = make_store("memory")
    try:
        for clock, step in enumerate(steps_to_take):
            kind = step[0]
            if kind == "add":
                _, key, sequence = step
                tup = publication(sequence)
                sqlite.add(key, tup, now=float(clock))
                memory.add(key, tup, now=float(clock))
            elif kind == "flush":
                sqlite.flush()
            elif kind == "key":
                got = sqlite.tuples_for_key(step[1])
                assert got == memory.tuples_for_key(step[1])
                assert got == fresh_select(sqlite, "key = ?", step[1])
            elif kind == "prefix":
                prefix = step[1]
                got = sqlite.tuples_for_prefix(prefix)
                assert got == memory.tuples_for_prefix(prefix)
                table = fresh_select(sqlite, PREFIX_MATCH, len(prefix), prefix)
                assert got == deduplicated(table)
            elif kind == "expire":
                _, before, below = step
                removed = memory.remove_expired(before, below)
                assert sqlite.remove_expired(before, below) == removed
            elif kind == "remove_key":
                removed_records = memory.remove_key(step[1])
                records = sqlite.remove_key(step[1])
                assert [r.tuple for r in records] == [r.tuple for r in removed_records]
            elif kind == "older":
                _, key, cutoff = step
                removed = memory.remove_older_than(key, cutoff)
                assert sqlite.remove_older_than(key, cutoff) == removed
            else:
                sqlite.clear()
                memory.clear()
            assert len(sqlite) == len(memory)
            # The key map lists exactly the keys holding a row, each with its
            # newest row's sequence number, and answers keys() with no SQL.
            statements = counting.statements
            assert sorted(sqlite.keys()) == sorted(sqlite._keys)
            assert sorted(sqlite._keys) == sorted(memory.keys())
            assert counting.statements == statements
            for key, entry in sqlite._keys.items():
                stored = memory.tuples_for_key(key)
                assert entry.newest == max(tup.sequence for tup in stored)
                assert entry.rows is None or entry.rows == stored
            for bucket, entry in sqlite._buckets.items():
                assert entry.rows is None or entry.rows == (
                    memory.tuples_for_prefix(bucket)
                )
            cached = list(sqlite._admitted)
            assert all(entry.rows is not None for entry in cached)
            assert sum(
                entry.rows is not None
                for entries in (sqlite._keys, sqlite._buckets)
                for entry in entries.values()
            ) == len(cached)
            assert sqlite._cached == sum(1 + len(entry.rows) for entry in cached)
            assert sqlite._cached <= bound
    finally:
        sqlite.close()


#: The tier-1 budget; ``--hypothesis-profile generator`` (tests/conftest.py)
#: runs the profile's instead.
_quiet = [HealthCheck.function_scoped_fixture]
_long_run = settings.default is settings.get_profile("generator")
INTERLEAVINGS = (
    settings(settings.default, suppress_health_check=_quiet)
    if _long_run
    else settings(max_examples=150, deadline=None, suppress_health_check=_quiet)
)


@pytest.mark.parametrize("bound", [PROBE_MEMO_BOUND, 5], ids=["stated", "evicting"])
@INTERLEAVINGS
@given(steps_to_take=st.lists(steps, max_size=40))
@example(
    steps_to_take=[
        ("add", KEYS[0], 4),
        ("key", KEYS[0]),
        ("prefix", PREFIXES[0]),
        ("add", KEYS[0], 2),  # out of publication order
        ("add", KEYS[0], 2),  # the same identity under one key again
        ("key", KEYS[0]),
        ("prefix", PREFIXES[0]),
        ("expire", None, 3),  # a sequence cutoff: both slots of 2 go
        ("key", KEYS[0]),
        ("prefix", PREFIXES[0]),
    ]
)
@example(
    steps_to_take=[
        ("add", KEYS[0], 0),
        ("add", KEYS[0], 1),
        ("add", KEYS[1], 6),
        ("key", KEYS[0]),
        ("prefix", PREFIXES[0]),
        ("expire", 2.0, None),  # a head of two off both entries
        ("key", KEYS[0]),
        ("prefix", PREFIXES[0]),
    ]
)
@example(
    steps_to_take=[
        ("add", KEYS[0], 0),
        ("add", BUCKET_SHAPED_KEY, 2),
        ("prefix", PREFIXES[0]),
        ("key", BUCKET_SHAPED_KEY),  # not the bucket's entry
        ("add", BUCKET_SHAPED_KEY, 2),  # folded once, as into a bucket
        ("prefix", PREFIXES[0]),
        ("key", BUCKET_SHAPED_KEY),
    ]
)
@example(
    steps_to_take=[
        ("add", KEYS[0], 5),
        ("add", KEYS[0], 1),
        ("add", KEYS[1], 3),
        ("key", KEYS[0]),
        ("prefix", PREFIXES[0]),
        ("expire", 2.0, 5),  # the longer head is the sequence cutoff's
        ("key", KEYS[0]),
        ("prefix", PREFIXES[0]),
    ]
)
def test_every_interleaving_reads_like_memory_and_like_the_table(
    monkeypatch, bound, steps_to_take
):
    monkeypatch.setattr(sqlite_store, "PROBE_MEMO_BOUND", bound)
    run(steps_to_take, bound)


BUCKET = prefix_for("R", "a")


def r_key(k: int) -> str:
    return key_for("R", "a", k)


#: More keys than any filled store here has: publication ``i`` of every key
#: precedes publication ``i + 1`` of any key, in sequence and in time.
STRIDE = 100


def stream(k: int, per_key: int) -> List[Tuple]:
    """The tuples :func:`filled_store` puts under ``r_key(k)``, in order."""
    return [Tuple("R", (k, i), float(i), i * STRIDE + k) for i in range(per_key)]


def filled_store(keys: int, per_key: int) -> SqliteTupleStore:
    store = SqliteTupleStore()
    for k in range(keys):
        store.add_batch([(r_key(k), tup, 0.0) for tup in stream(k, per_key)])
    store.flush()
    return store


class TestProbeMemoBound:
    def test_a_probe_sweep_holds_the_memo_at_its_cap(self):
        store = filled_store(1, 10)
        singles = PROBE_MEMO_BOUND // 2  # keys of one row, 2 each
        try:
            # One row per key, published after ``r_key(0)``'s stream.
            store.add_batch(
                [(r_key(k), Tuple("R", (k,), 10.0, 10 * STRIDE + k), 0.0)
                 for k in range(1, singles + 1)]
            )
            assert store.tuples_for_key(r_key(0)) == stream(0, 10)  # costs 11
            for k in range(1, singles + 1):
                assert len(store.tuples_for_key(r_key(k))) == 1
            assert store._cached == PROBE_MEMO_BOUND
            assert len(store._admitted) == singles
            assert store._keys[r_key(0)].rows is None
            assert store.tuples_for_key(r_key(0)) == stream(0, 10)
            assert store._cached <= PROBE_MEMO_BOUND
        finally:
            store.close()

    def test_writes_into_cached_entries_stay_within_the_cap(self):
        store = SqliteTupleStore()
        try:
            for k in range(4):
                store.add(r_key(k), Tuple("R", (k,), 0.0, k), 0.0)
                store.tuples_for_key(r_key(k))
            for seq in range(4, PROBE_MEMO_BOUND):
                store.add(r_key(seq % 4), Tuple("R", (seq,), 0.0, seq), 0.0)
                assert store._cached <= PROBE_MEMO_BOUND
            assert store._keys[r_key(0)].rows is None
            assert len(store.tuples_for_key(r_key(1))) == PROBE_MEMO_BOUND // 4
        finally:
            store.close()

    def test_the_gated_store_benchmark_fits_under_the_bound(self):
        """Every bucket ``bench_store_backends`` probes fits in the memo at once.

        Its ``prefix_match`` cycles through the buckets of its default-size
        store; were they to cost more than the bound, oldest-first eviction
        would turn every probe into a miss.
        """
        path = Path(__file__).resolve().parents[2] / "benchmarks"
        path = path / "bench_store_backends.py"
        spec = importlib.util.spec_from_file_location("bench_store_backends", path)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        listed = Counter(
            bucket_of(bench._key_of(tup))
            for tup in bench._make_tuples(bench.DEFAULT_SIZES["tuples"])
        )
        cost = sum(1 + listed[prefix] for prefix in bench._prefixes())
        assert sum(listed.values()) == bench.DEFAULT_SIZES["tuples"]
        assert cost <= PROBE_MEMO_BOUND

    def test_a_result_larger_than_the_bound_is_read_but_not_kept(self, monkeypatch):
        monkeypatch.setattr(sqlite_store, "PROBE_MEMO_BOUND", 8)
        store = filled_store(1, 8)
        try:
            assert store.tuples_for_key(r_key(0)) == stream(0, 8)
            assert store.tuples_for_prefix(BUCKET) == stream(0, 8)
            assert not store._admitted and store._cached == 0
        finally:
            store.close()


class TestProbeMemoUpkeep:
    def test_a_hit_sees_buffered_writes_without_flushing(self):
        store = filled_store(1, 2)
        try:
            store.tuples_for_key(r_key(0))
            store.tuples_for_prefix(BUCKET)
            late = Tuple("R", (0, 9), 0.5, STRIDE - 1)  # sorts between the two
            store.add(r_key(0), late, 0.0)
            first, second = stream(0, 2)
            assert store.tuples_for_key(r_key(0)) == [first, late, second]
            assert store.tuples_for_prefix(BUCKET) == [first, late, second]
            assert store._pending  # neither hit flushed
        finally:
            store.close()

    def test_a_ranged_delete_keeps_the_entries_it_does_not_touch(self):
        store = filled_store(3, 2)
        try:
            for k in range(3):
                store.tuples_for_key(r_key(k))
            store.tuples_for_prefix(BUCKET)
            (a1, a2), (b1, b2), (c1, c2) = (stream(k, 2) for k in range(3))
            assert store.remove_expired(sequenced_before=a1.sequence + 1) == 1
            assert cached_names(store) == [r_key(0), r_key(1), r_key(2), BUCKET]
            assert store._keys[r_key(0)].rows == [a2]
            assert store._keys[r_key(1)].rows == [b1, b2]
            assert store.tuples_for_prefix(BUCKET) == [b1, c1, a2, b2, c2]
        finally:
            store.close()

    def test_keyed_deletes_drop_the_entries_of_their_key(self):
        store = filled_store(2, 2)
        try:
            for k in range(2):
                store.tuples_for_key(r_key(k))
            store.tuples_for_prefix(BUCKET)
            store.remove_key(r_key(0))
            assert cached_names(store) == [r_key(1)]
            assert store.tuples_for_key(r_key(0)) == []
            assert store.tuples_for_prefix(BUCKET) == stream(1, 2)
        finally:
            store.close()


class TestKeyMap:
    def test_a_probe_of_a_key_without_rows_runs_no_sql(self):
        store = filled_store(2, 2)
        try:
            # Both rows of r_key(0) and the first of r_key(1) expire.
            assert store.remove_expired(sequenced_before=STRIDE + 1) == 3
            store.add(r_key(1), Tuple("R", (1, 2), 2.0, 2 * STRIDE + 1), 0.0)
            counting = store._conn = CountingConnection(store._conn)
            for key in (r_key(0), r_key(7)):  # rows all expired, never stored
                assert store.tuples_for_key(key) == []
                assert store.remove_key(key) == []
                assert store.remove_older_than(key, 10.0) == 0
            assert counting.statements == 0
            # r_key(1)'s entry was cached by its first write: still no SQL.
            assert store._pending and list(store._keys) == [r_key(1)]
            assert len(store.tuples_for_key(r_key(1))) == 2
            assert counting.statements == 0
            assert len(store.tuples_for_prefix(BUCKET)) == 2
            assert counting.statements > 0
        finally:
            store.close()

    def test_a_key_written_again_after_a_cutoff_emptied_it_is_read_without_sql(
        self,
    ):
        store = filled_store(2, 2)
        try:
            assert store.tuples_for_key(r_key(0)) == stream(0, 2)
            # Both rows of r_key(0) and the first of r_key(1) expire.
            assert store.remove_expired(sequenced_before=STRIDE + 1) == 3
            assert store.tuples_for_key(r_key(0)) == []
            again = Tuple("R", (0, 2), 2.0, 2 * STRIDE)
            store.add(r_key(0), again, 0.0)
            store.flush()
            counting = store._conn = CountingConnection(store._conn)
            assert store.tuples_for_key(r_key(0)) == [again]
            assert counting.statements == 0
        finally:
            store.close()

    @pytest.mark.parametrize("cutoff", ["published", "sequenced"])
    def test_a_cutoff_past_every_row_empties_the_key_map(self, cutoff):
        store = filled_store(3, 4)
        try:
            store.add(r_key(5), Tuple("R", (5,), 5.0, 5 * STRIDE), 0.0)  # pending
            store.tuples_for_key(r_key(1))
            store.tuples_for_prefix(BUCKET)
            assert len(store._keys) == 4
            if cutoff == "published":
                assert store.remove_published_before(6.0) == 13
            else:
                assert store.remove_sequenced_before(6 * STRIDE) == 13
            assert store._keys == {} and store._buckets == {}
            assert not store._admitted and store._cached == 0 and len(store) == 0
        finally:
            store.close()
