"""The sqlite store's probe memo: exact under every interleaving, and bounded.

The ``sqlite`` backend answers exact-key and canonical-bucket probes from one
write-through memo (:mod:`repro.data.sqlite_store`).  The property test
drives random runs of writes, flushes, probes and every kind of delete, and
after each read checks the sqlite result against two references: the
``memory`` backend given the same operations, and a fresh SELECT that does
not go through the memo.  It runs once at the stated bound and once with
the bound lowered so that entries are evicted all the time.
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

PUB_TIMES = [0.0, 1.0, 2.0, 3.0, 4.0]

#: Sequence numbers count per relation, so ``R`` and ``S`` reuse them; the
#: shift keeps two relations' publications from sorting level.
SHIFT = {"R": 0.0, "S": 0.5}

adds = st.tuples(
    st.just("add"),
    st.sampled_from(KEYS),
    st.sampled_from(PUB_TIMES),
    st.none() | st.integers(0, 40),  # None: a new publication; else re-store one
)
steps = st.one_of(
    adds,
    adds,
    st.tuples(st.just("flush")),
    st.tuples(st.just("key"), st.sampled_from(KEYS)),
    st.tuples(st.just("prefix"), st.sampled_from(PREFIXES)),
    st.tuples(
        st.just("expire"),
        st.none() | st.sampled_from(PUB_TIMES),
        st.none() | st.integers(0, 12),
    ),
    st.tuples(st.just("remove_key"), st.sampled_from(KEYS)),
    st.tuples(st.just("older"), st.sampled_from(KEYS), st.integers(0, 20)),
    st.tuples(st.just("clear")),
)


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
    memory = make_store("memory")
    published: List[Tuple] = []
    try:
        for clock, step in enumerate(steps_to_take):
            kind = step[0]
            if kind == "add":
                _, key, pub_time, reuse = step
                if reuse is None or not published:
                    relation = key[0] if SEPARATOR in key else "R"
                    seq = sum(1 for tup in published if tup.relation == relation)
                    pub_time += SHIFT[relation]
                    tup = Tuple(relation, (seq, key), pub_time, seq)
                    published.append(tup)
                else:
                    tup = published[reuse % len(published)]
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
            entries = sqlite._memo.values()
            assert sqlite._memo_size == sum(1 + len(entry) for entry in entries)
            assert sqlite._memo_size <= bound
    finally:
        sqlite.close()


@pytest.mark.parametrize("bound", [PROBE_MEMO_BOUND, 5], ids=["stated", "evicting"])
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(steps_to_take=st.lists(steps, max_size=40))
@example(
    steps_to_take=[
        ("add", KEYS[0], 2.0, None),
        ("key", KEYS[0]),
        ("prefix", PREFIXES[0]),
        ("add", KEYS[0], 1.0, None),  # out of publication order
        ("add", KEYS[0], 0.0, 0),  # the same identity under one key again
        ("key", KEYS[0]),
        ("prefix", PREFIXES[0]),
        ("expire", None, 1),
        ("key", KEYS[0]),
        ("prefix", PREFIXES[0]),
    ]
)
@example(
    steps_to_take=[
        ("add", KEYS[0], 0.0, None),
        ("add", KEYS[0], 1.0, None),
        ("add", KEYS[1], 3.0, None),
        ("key", KEYS[0]),
        ("prefix", PREFIXES[0]),
        ("expire", 2.0, None),  # a head of two off both entries
        ("key", KEYS[0]),
        ("prefix", PREFIXES[0]),
    ]
)
@example(
    steps_to_take=[
        ("add", KEYS[0], 0.0, None),
        ("add", BUCKET_SHAPED_KEY, 1.0, None),
        ("prefix", PREFIXES[0]),
        ("key", BUCKET_SHAPED_KEY),  # not the bucket's entry
        ("add", BUCKET_SHAPED_KEY, 1.0, 1),  # folded once, as into a bucket
        ("prefix", PREFIXES[0]),
        ("key", BUCKET_SHAPED_KEY),
    ]
)
@example(
    steps_to_take=[
        ("add", key_for("R", "a", 0), 3.0, None),  # (R, 0)
        ("add", key_for("S", "a", 0), 0.0, None),  # (S, 0)
        ("add", key_for("R", "a", 0), 0.0, 1),  # (S, 0) under R's key too
        ("key", key_for("R", "a", 0)),
        ("expire", 1.0, None),  # takes (S, 0) and leaves (R, 0)
        ("key", key_for("R", "a", 0)),
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


def stream(k: int, per_key: int) -> List[Tuple]:
    """The tuples :func:`filled_store` puts under ``r_key(k)``, in order."""
    return [Tuple("R", (k, i), float(i), k * per_key + i) for i in range(per_key)]


def filled_store(keys: int, per_key: int) -> SqliteTupleStore:
    store = SqliteTupleStore()
    for k in range(keys):
        store.add_batch([(r_key(k), tup, 0.0) for tup in stream(k, per_key)])
    store.flush()
    return store


class TestProbeMemoBound:
    def test_a_probe_sweep_holds_the_memo_at_its_cap(self):
        store = filled_store(1, 10)
        try:
            assert store.tuples_for_key(r_key(0)) == stream(0, 10)  # costs 11
            for k in range(1, PROBE_MEMO_BOUND + 1):  # empty keys, 1 each
                store.tuples_for_key(r_key(k))
            assert store._memo_size == PROBE_MEMO_BOUND
            assert len(store._memo) == PROBE_MEMO_BOUND
            assert r_key(0) not in store._memo
            assert store.tuples_for_key(r_key(0)) == stream(0, 10)
            assert store._memo_size <= PROBE_MEMO_BOUND
        finally:
            store.close()

    def test_writes_into_cached_entries_stay_within_the_cap(self):
        store = SqliteTupleStore()
        try:
            for k in range(4):
                store.tuples_for_key(r_key(k))
            for seq in range(PROBE_MEMO_BOUND):
                store.add(r_key(seq % 4), Tuple("R", (seq,), 0.0, seq), 0.0)
                assert store._memo_size <= PROBE_MEMO_BOUND
            assert r_key(0) not in store._memo
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
            assert store._memo == {} and store._memo_size == 0
        finally:
            store.close()


class TestProbeMemoUpkeep:
    def test_a_hit_sees_buffered_writes_without_flushing(self):
        store = filled_store(1, 2)
        try:
            store.tuples_for_key(r_key(0))
            store.tuples_for_prefix(BUCKET)
            late = Tuple("R", (0, 9), 0.5, 99)  # sorts between the two
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
            assert store.remove_expired(sequenced_before=2) == 2  # key 0's two
            assert list(store._memo) == [r_key(0), r_key(1), r_key(2), BUCKET]
            assert store._memo[r_key(0)] == []
            assert store._memo[r_key(1)] == stream(1, 2)
            (a1, a2), (b1, b2) = stream(1, 2), stream(2, 2)
            assert store.tuples_for_prefix(BUCKET) == [a1, b1, a2, b2]
        finally:
            store.close()

    def test_keyed_deletes_drop_the_entries_of_their_key(self):
        store = filled_store(2, 2)
        try:
            for k in range(2):
                store.tuples_for_key(r_key(k))
            store.tuples_for_prefix(BUCKET)
            store.remove_key(r_key(0))
            assert list(store._memo) == [r_key(1)]
            assert store.tuples_for_key(r_key(0)) == []
            assert store.tuples_for_prefix(BUCKET) == stream(1, 2)
        finally:
            store.close()
