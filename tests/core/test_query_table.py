"""The stored-query table's sharing index.

``find_share_host`` looks a state up in two steps: the cheap part of its
sharing identity (:func:`~repro.core.rewriting.canonical_state_key`) first,
the query only among the resident records that have that part.  These tests
pin what that buys — a miss touches no query, a hit costs O(1) however many
records share the part — and that hosts come and go exactly as a plain
dictionary keyed on the full ``(query, cheap part)`` says.  The table's
per-bucket expiry heaps keep to their bound however records leave.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import RJoinConfig
from repro.core.engine import RJoinEngine
from repro.core.keys import attribute_key
from repro.core.protocol import QueryState
from repro.core.query_table import QueryTable, StoredQueryRecord, _KeyBucket
from repro.core.rewriting import canonical_state_key
from repro.core.windows import WindowState
from repro.data.schema import AttributeRef
from repro.sql.ast import JoinPredicate, Query, SelectionPredicate, WindowSpec

R_A, R_B = AttributeRef("R", "a"), AttributeRef("R", "b")
S_C, S_D = AttributeRef("S", "c"), AttributeRef("S", "d")
KEY = attribute_key("R", "b")


def make_query(constant, window=None):
    return Query(
        select_items=(R_A, S_D),
        relations=("R", "S"),
        join_predicates=(JoinPredicate(R_B, S_C),),
        selection_predicates=(SelectionPredicate(R_A, constant),),
        window=window,
    )


def make_record(query_id, query, insertion_time=0.0, span=None, consumed=0):
    state = QueryState(
        query_id=query_id,
        owner="n0",
        query=query,
        insertion_time=insertion_time,
        is_input=consumed == 0,
        window_state=span,
        consumed=consumed,
    )
    return StoredQueryRecord(
        state=state, key=KEY, stored_at=0.0, share_key=canonical_state_key(state)
    )


@pytest.fixture
def query_calls(monkeypatch):
    """Counts of ``Query.__hash__`` / ``Query.__eq__`` calls from here on."""
    calls = {"hash": 0, "eq": 0}
    query_hash, query_eq = Query.__hash__, Query.__eq__

    def counting_hash(self):
        calls["hash"] += 1
        return query_hash(self)

    def counting_eq(self, other):
        calls["eq"] += 1
        return query_eq(self, other)

    monkeypatch.setattr(Query, "__hash__", counting_hash)
    monkeypatch.setattr(Query, "__eq__", counting_eq)
    return calls


class TestCanonicalStateKey:
    def test_is_the_state_without_its_query(self):
        span = WindowState(3.0, 5.0)
        record = make_record("q", make_query(1), 2.0, span, consumed=1)
        assert record.share_key == (2.0, 3.0, 5.0, False, 1)
        other = make_record("p", make_query(2), 2.0, WindowState(3.0, 5.0), 1)
        assert other.share_key == record.share_key

    def test_distinct_states_are_not_shared(self):
        query = Query(
            select_items=(R_A,), relations=("R",), distinct=True
        )
        assert make_record("q", query).share_key is None


class TestLookupCost:
    def test_a_new_cheap_part_touches_no_query(self, query_calls):
        table = QueryTable()
        window = WindowSpec(size=10, mode="tuples")
        for clock in range(20):
            record = make_record(
                f"q{clock}", make_query(1, window), 0.0,
                WindowState(float(clock), float(clock)), consumed=1,
            )
            assert table.find_share_host(
                KEY.text, record.share_key, record.state.query
            ) is None
            table.add(KEY.text, record)
        assert query_calls == {"hash": 0, "eq": 0}

    def test_an_eval_with_new_clocks_touches_no_query(self, query_calls):
        engine = RJoinEngine(RJoinConfig(num_nodes=8, seed=2, strategy="first"))
        engine.register_relation("R", ["a", "b"])
        engine.register_relation("S", ["c", "d"])
        handle = engine.submit(
            "SELECT R.a, S.d FROM R, S WHERE R.b = S.c WINDOW 50 TUPLES"
        )
        engine.publish("S", (10, 0))
        before = dict(query_calls)
        # Every R tuple sends an Eval to where S.c = 10 is stored; each
        # carries its own tuple's clock, so none finds a cheap part it knows.
        for a in range(5):
            engine.publish("R", (a, 10))
        assert query_calls == before
        assert sorted(handle.values()) == [(a, 0) for a in range(5)]
        stored = sum(node.stored_rewritten_queries for node in engine.nodes.values())
        assert stored == 5
        engine.close()

    def test_thousands_of_queries_of_one_insertion_time_cost_o1_each(
        self, query_calls
    ):
        table = QueryTable()
        count = 5000
        records = [make_record(f"q{i}", make_query(i)) for i in range(count)]
        assert len({record.share_key for record in records}) == 1
        for record in records:
            assert table.find_share_host(
                KEY.text, record.share_key, record.state.query
            ) is None
            table.add(KEY.text, record)
        # One hash to look up, one to file; a scan would compare ~n²/2 times.
        assert query_calls["hash"] <= 3 * count
        assert query_calls["eq"] <= count
        before = dict(query_calls)
        twin = make_record("twin", make_query(count - 1))
        assert table.find_share_host(
            KEY.text, twin.share_key, twin.state.query
        ) is records[-1]
        assert query_calls["hash"] - before["hash"] <= 2
        assert query_calls["eq"] - before["eq"] <= 2

    def test_one_resident_record_costs_one_comparison_and_no_hash(
        self, query_calls
    ):
        table = QueryTable()
        host = make_record("host", make_query(1))
        table.add(KEY.text, host)
        twin, stranger = make_query(1), make_query(2)
        assert table.find_share_host(KEY.text, host.share_key, twin) is host
        assert table.find_share_host(KEY.text, host.share_key, stranger) is None
        assert query_calls == {"hash": 0, "eq": 2}


# ---------------------------------------------------------------------------
# Model: a dictionary keyed on the full (key text, query, cheap part)
# ---------------------------------------------------------------------------
_KEYS = ("k0", "k1")
_QUERIES = (0, 1, 2)
_PARTS = (
    (0.0, None, 0),
    (1.0, None, 0),
    (0.0, WindowState(1.0, 2.0), 1),
)

_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.sampled_from(_KEYS),
            st.sampled_from(_QUERIES),
            st.sampled_from(_PARTS),
        ),
        st.tuples(st.just("remove_query"), st.integers(0, 50)),
        st.tuples(st.just("pop_key"), st.sampled_from(_KEYS)),
        st.tuples(st.just("rehome"), st.sampled_from(_KEYS)),
    ),
    max_size=40,
)


def _full_key(key_text, record):
    return key_text, record.state.query, record.share_key


@settings(max_examples=300, deadline=None)
@given(_ops)
def test_share_hosts_follow_a_dictionary_on_the_full_key(ops):
    """Same host, first host wins, a removed host's re-homed twin is found."""
    table = QueryTable()
    model = {}     # full key -> host record
    resident = []  # (key text, record), in insertion order
    popped = []    # records taken off with pop_key, waiting to be re-homed
    serial = 0

    def add(key_text, record):
        table.add(key_text, record)
        resident.append((key_text, record))
        model.setdefault(_full_key(key_text, record), record)

    def unlink(key_text, record):
        if model.get(_full_key(key_text, record)) is record:
            del model[_full_key(key_text, record)]

    for op in ops:
        if op[0] == "add":
            _, key_text, constant, (inserted, span, consumed) = op
            serial += 1
            add(
                key_text,
                make_record(
                    f"q{serial}", make_query(constant), inserted, span, consumed
                ),
            )
        elif op[0] == "remove_query" and resident:
            key_text, record = resident.pop(op[1] % len(resident))
            removed, detached = table.remove_query(record.state.query_id)
            assert removed == [record] and detached == 0
            unlink(key_text, record)
        elif op[0] == "pop_key":
            gone = table.pop_key(op[1])
            assert gone == [record for at, record in resident if at == op[1]]
            for record in gone:
                unlink(op[1], record)
            resident = [entry for entry in resident if entry[0] != op[1]]
            popped.extend(gone)
        elif op[0] == "rehome":
            for record in popped:
                add(op[1], record)
            popped = []

        assert len(table) == len(resident)
        for key_text in _KEYS:
            for constant in _QUERIES:
                for inserted, span, consumed in _PARTS:
                    probe = make_record(
                        "probe", make_query(constant), inserted, span, consumed
                    )
                    assert table.find_share_host(
                        key_text, probe.share_key, probe.state.query
                    ) is model.get(_full_key(key_text, probe))
        # The bound: one index entry per resident host, none left behind.
        filed = 0
        for bucket in table._by_key.values():
            for hosts in bucket.by_share.values():
                assert hosts != {}
                filed += len(hosts) if type(hosts) is dict else 1
        assert filed == len(model)


class TestUnhashableConstants:
    """Equality needs no hash: such states are stored, matched and answered."""

    def build(self):
        engine = RJoinEngine(RJoinConfig(num_nodes=8, seed=2, strategy="first"))
        engine.register_relation("R", ["a", "b"])
        engine.register_relation("S", ["c", "d"])
        return engine

    def test_twins_share_and_a_third_stands_alone(self):
        engine = self.build()
        # Submitted in one go: one insertion time, one key, one cheap part.
        first = engine.submit(make_query([1, 2]), process=False)
        twin = engine.submit(make_query([1, 2]), process=False)
        other = engine.submit(make_query([3]), process=False)
        engine.run()
        assert first.insertion_time == twin.insertion_time == other.insertion_time
        stored = [
            record
            for node in engine.nodes.values()
            for _, records in node.input_queries.items()
            for record in records
        ]
        # The twin merged into the first by ``==``; the third could not be
        # filed beside it (that takes a hash) and is simply not shareable.
        assert sorted(len(record.state.subscribers) for record in stored) == [1, 2]
        engine.publish("R", ([1, 2], 10))
        engine.publish("R", ([3], 10))
        engine.publish("S", (10, 7))
        assert first.values() == twin.values() == [([1, 2], 7)]
        assert other.values() == [([3], 7)]
        engine.remove_query(first.query_id)
        engine.remove_query(other.query_id)
        engine.publish("S", (10, 8))
        assert sorted(twin.values()) == [([1, 2], 7), ([1, 2], 8)]
        assert other.values() == [([3], 7)]
        engine.close()

    def test_table_files_and_unlinks_them_without_raising(self):
        table = QueryTable()
        records = [
            make_record("a", make_query([1])),
            make_record("b", make_query([2])),
            make_record("c", make_query(3)),
        ]
        for record in records:
            table.add(KEY.text, record)
        host, unfiled, hashable = records
        assert host.share_key is not None and unfiled.share_key is None
        assert table.find_share_host(KEY.text, host.share_key, make_query([1])) is host
        assert table.find_share_host(KEY.text, host.share_key, make_query([2])) is None
        # Beside a dict of hashable twins an unhashable query is looked up
        # and added without raising, and never found.
        later = [make_record(name, make_query(4), 1.0) for name in ("d", "e")]
        later.append(make_record("f", make_query(5), 1.0))
        late = make_record("g", make_query([6]), 1.0)
        for record in later:
            table.add(KEY.text, record)
        part = late.share_key
        assert table.find_share_host(KEY.text, part, make_query(4)) is later[0]
        assert table.find_share_host(KEY.text, part, make_query([6])) is None
        table.add(KEY.text, late)
        assert late.share_key is None
        assert table.find_share_host(KEY.text, part, make_query([6])) is None
        for record in records + later + [late]:
            table.remove_query(record.state.query_id)
        assert len(table) == 0 and list(table.keys()) == []


class TestExpiryHeapBound:
    """A bucket's expiry heap holds at most 2 × live records + 8 entries."""

    STEPS = 400

    def expire_through_gc(self):
        """One record per clock tick under one never-probed key, each tick
        followed by a table-wide ``gc_expired``; then one probe per value."""
        table = QueryTable()
        window = WindowSpec(size=10, mode="tuples")
        drops, sizes = [], []
        for clock in range(self.STEPS):
            span = WindowState(float(clock), float(clock))
            query = make_query(clock % 3, window)
            table.add("k", make_record(f"q{clock}", query, 0.0, span, consumed=1))
            drops.append(table.gc_expired({"tuples": float(clock)}))
            bucket = table._by_key["k"]
            sizes.append((len(bucket.expiry["tuples"]), len(bucket.records)))
        probes = []
        for constant in range(3):
            candidates, dropped = table.probe(
                "k", {"tuples": self.STEPS + 3.0}, lambda attribute, c=constant: c
            )
            probes.append(([record.state.query_id for record in candidates], dropped))
        return drops, sizes, probes

    def test_gc_of_a_never_probed_bucket_keeps_its_heap_bounded(self, monkeypatch):
        drops, sizes, probes = self.expire_through_gc()
        assert all(heap <= 2 * live + 8 for heap, live in sizes)
        assert sum(drops) >= self.STEPS - 20
        monkeypatch.setattr(_KeyBucket, "bound_expiry", lambda bucket, mode: None)
        unbounded = self.expire_through_gc()
        # Without the bound the stale entries pile up, and nothing else differs.
        assert unbounded[1][-1][0] > self.STEPS - 20
        assert (drops, probes) == (unbounded[0], unbounded[2])
        assert sum(dropped for _, dropped in probes) > 0
        assert [ids for ids, _ in probes] != [[], [], []]
