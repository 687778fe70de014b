"""The stored-query table's sharing index.

``find_share_host`` looks a state up in two steps: the cheap part of its
sharing identity (:func:`~repro.core.rewriting.canonical_state_key`) first,
the query only among the resident records that have that part.  These tests
pin what that buys — a miss touches no query, a hit costs O(1) however many
records share the part — and that hosts come and go exactly as a plain
dictionary keyed on the full ``(query, cheap part)`` says.  The table's
expiry calendar drops exactly the records past their window, and keeps to
its bound however records leave.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import RJoinConfig
from repro.core.engine import RJoinEngine
from repro.core.keys import attribute_key
from repro.core.protocol import QueryState
from repro.core.query_table import QueryTable, StoredQueryRecord
from repro.core.rewriting import canonical_state_key
from repro.core.windows import WindowState, expired
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
        state=state, key=KEY, share_key=canonical_state_key(state)
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


def calendar_entries(table):
    """``(entries, distinct deadlines)`` over every mode's calendar."""
    entries = deadlines = 0
    for heap, due in table._calendars.values():
        assert sorted(heap) == sorted(due)  # one heap slot per deadline
        deadlines += len(heap)
        entries += sum(len(at) for at in due.values()) // 3  # bucket, group, seq
    return entries, deadlines


class TestCalendarBound:
    """The calendar holds one entry per record added with a deadline the
    clock has not passed at the last sweep: at most the records added
    within one window of the clock, and none once the clock passes every
    deadline, however the records left."""

    STEPS = 400
    WINDOW = 10

    def run(self, retract: bool, rehome: bool):
        """One record per clock tick under one of three never-probed keys,
        swept at every tick; optionally each tick retracts the record five
        ticks older, or re-homes the records of the key it was added under
        (a re-homed record is added again, with its deadline)."""
        table = QueryTable()
        window = WindowSpec(size=self.WINDOW, mode="tuples")
        keys = ("k0", "k1", "k2")
        added = []  # the deadline of every add
        for clock in range(self.STEPS):
            span = WindowState(float(clock), float(clock))
            query = make_query(clock % 3, window)
            table.add(keys[clock % 3], make_record(f"q{clock}", query, 0.0, span, 1))
            added.append(clock + self.WINDOW - 1)
            if retract and clock >= 5:
                removed, _ = table.remove_query(f"q{clock - 5}")
                assert len(removed) == 1
            if rehome:
                for record in table.pop_key(keys[clock % 3]):
                    table.add(keys[(clock + 1) % 3], record)
                    deadline = record.state.window_state.min_clock + self.WINDOW - 1
                    added.append(deadline)
            table.sweep({"tuples": float(clock)})
            entries, deadlines = calendar_entries(table)
            # The adds of the last window, each a record added at a clock
            # in clock - WINDOW + 1 .. clock.
            assert entries == sum(deadline >= clock for deadline in added)
            assert len(table) <= entries
            assert deadlines == min(clock + 1, self.WINDOW)
            if not rehome:
                assert entries <= self.WINDOW
        table.sweep({"tuples": float(self.STEPS + self.WINDOW)})
        assert len(table) == 0 and calendar_entries(table) == (0, 0)
        assert table._calendars["tuples"] == ([], {})

    @pytest.mark.parametrize(
        "retract, rehome", [(False, False), (True, False), (False, True)]
    )
    def test_entries_stay_within_one_window(self, retract, rehome):
        self.run(retract, rehome)

    def test_a_record_retracted_before_its_deadline_is_skipped(self):
        table = QueryTable()
        window = WindowSpec(size=3, mode="tuples")
        for name in ("a", "b"):
            query = make_query(1, window)
            table.add("k", make_record(name, query, 0.0, WindowState(0.0, 0.0), 1))
        assert [r.state.query_id for r in table.remove_query("a")[0]] == ["a"]
        table.sweep({"tuples": 2.0})  # nothing due: the deadline is 2
        assert len(table) == 1 and calendar_entries(table) == (2, 1)
        table.sweep({"tuples": 3.0})
        assert len(table) == 0 and calendar_entries(table) == (0, 0)
        assert "k" not in table._by_key

    def test_a_sweep_with_no_clock_for_a_mode_leaves_it(self):
        table = QueryTable()
        span = WindowState(0.0, 0.0)
        for name, mode in (("t", "time"), ("n", "tuples")):
            query = make_query(1, WindowSpec(size=1, mode=mode))
            table.add("k", make_record(name, query, 0.0, span, 1))
        table.sweep({"tuples": 5.0})
        assert [r.state.query_id for _, rs in table.items() for r in rs] == ["t"]


# ---------------------------------------------------------------------------
# Model: a sweep leaves what an ``expired()`` scan of every bucket leaves
# ---------------------------------------------------------------------------
_MODES = ("time", "tuples")

_sweep_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.sampled_from(_KEYS),
            st.sampled_from(_MODES),
            st.integers(0, 12),  # the record's min clock
            st.integers(1, 6),  # its window size
        ),
        st.tuples(st.just("remove_query"), st.integers(0, 50)),
        st.tuples(st.just("pop_key"), st.sampled_from(_KEYS)),
        # Re-homing: pop one key and add its records back under another.
        st.tuples(st.just("rehome"), st.sampled_from(_KEYS), st.sampled_from(_KEYS)),
        st.tuples(st.just("sweep"), st.integers(0, 3), st.integers(0, 3)),
    ),
    max_size=60,
)

#: The tier-1 budget; ``--hypothesis-profile generator`` replaces it.
_long_run = settings.default is settings.get_profile("generator")


@(settings.default if _long_run else settings(max_examples=300, deadline=None))
@given(_sweep_ops)
@example(
    [
        ("add", "k0", "tuples", 0, 1),
        ("add", "k0", "tuples", 5, 5),
        ("sweep", 0, 3),  # the bucket keeps its later record
        ("sweep", 0, 10),
    ]
)
@example(
    [
        ("add", "k0", "time", 0, 3),
        ("rehome", "k0", "k1"),  # the record has two entries now
        ("add", "k0", "time", 0, 3),  # a new bucket under the old key
        ("sweep", 3, 0),
        ("add", "k1", "time", 2, 3),
        ("sweep", 1, 0),
    ]
)
def test_a_sweep_leaves_what_an_expired_scan_of_every_bucket_leaves(ops):
    """After every ``sweep``, the table holds exactly the records an
    ``expired()`` scan of every bucket would keep, across retractions and
    re-homings; between sweeps, exactly what was added and not taken out."""
    table = QueryTable()
    live = {}  # query id -> (key text, record)
    clocks = {"time": 0.0, "tuples": 0.0}
    serial = 0

    def held():
        return {
            record.state.query_id: key_text
            for key_text, records in table.items()
            for record in records
        }

    for op in ops:
        if op[0] == "add":
            _, key_text, mode, min_clock, size = op
            serial += 1
            span = WindowState(float(min_clock), float(min_clock))
            query = make_query(serial % 3, WindowSpec(size=size, mode=mode))
            record = make_record(f"q{serial}", query, 0.0, span, 1)
            table.add(key_text, record)
            live[f"q{serial}"] = (key_text, record)
        elif op[0] == "remove_query" and live:
            query_id = sorted(live)[op[1] % len(live)]
            removed, _ = table.remove_query(query_id)
            assert [record.state.query_id for record in removed] == [query_id]
            del live[query_id]
        elif op[0] == "pop_key":
            for record in table.pop_key(op[1]):
                del live[record.state.query_id]
        elif op[0] == "rehome":
            _, source, target = op
            for record in table.pop_key(source):
                table.add(target, record)
                live[record.state.query_id] = (target, record)
        elif op[0] == "sweep":
            clocks["time"] += op[1]
            clocks["tuples"] += op[2]
            table.sweep(dict(clocks))
            live = {
                query_id: (key_text, record)
                for query_id, (key_text, record) in live.items()
                if not expired(
                    record.state.query.window,
                    record.state.window_state,
                    clocks[record.state.query.window.mode],
                )
            }
        assert held() == {query_id: at[0] for query_id, at in live.items()}
        assert len(table) == len(live)
        assert set(table.keys()) == {key_text for key_text, _ in live.values()}


class TestBucketDictsOnFirstUse:
    """A bucket makes its wildcard and sharing dicts when first used."""

    @staticmethod
    def unshared(query_id, query, span=None, consumed=0):
        record = make_record(query_id, query, 0.0, span, consumed)
        record.share_key = None
        return record

    def test_discriminated_windowless_unshared_records_make_none(self):
        table = QueryTable()
        for constant in range(3):
            table.add("k", self.unshared(f"q{constant}", make_query(constant)))
        bucket = table._by_key["k"]
        assert len(bucket.records) == 3 and bucket.by_value
        assert bucket.wildcard is None
        assert bucket.by_share is None
        assert table._calendars == {}
        probed = table.probe("k", lambda attribute: 1)
        assert [record.state.query_id for record in probed] == ["q1"]
        part = (0.0, None, None, True, 0)
        assert table.find_share_host("k", part, make_query(1)) is None
        table.sweep({"tuples": 100.0})
        assert len(table) == 3

    def test_each_dict_comes_with_its_first_entry(self):
        table = QueryTable()
        table.add("k", self.unshared("plain", make_query(1)))
        bucket = table._by_key["k"]
        window = WindowSpec(size=10, mode="tuples")
        timed = self.unshared("timed", make_query(2, window), WindowState(1.0, 1.0), 1)
        table.add("k", timed)
        assert set(table._calendars) == {"tuples"}
        assert bucket.wildcard is None and bucket.by_share is None
        shared = make_record("shared", make_query(3))
        table.add("k", shared)
        assert bucket.by_share == {shared.share_key: shared}
        wild = self.unshared(
            "wild",
            Query(
                select_items=(R_A, S_D),
                relations=("R", "S"),
                join_predicates=(JoinPredicate(R_B, S_C),),
            ),
        )
        table.add("k", wild)
        assert list(bucket.wildcard.values()) == [wild]

    def test_a_bucket_whose_last_record_leaves_is_freed(self):
        table = QueryTable()
        table.add("k", self.unshared("q", make_query(1)))
        removed, _ = table.remove_query("q")
        assert removed and "k" not in table._by_key and len(table) == 0
