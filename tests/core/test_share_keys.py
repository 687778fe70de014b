"""Which states get a share key, and that giving fewer of them shares as much.

A state is looked up in, and filed into, the sharing index only when it has
a share key (:func:`~repro.core.rewriting.canonical_state_key`).  Under a
``TUPLES`` window a state that consumed at most two tuples is named by its
insertion time and their clocks, so it can only have a twin in a state of
another input query with the same insertion time; such a state gets a key
only while its insertion time is tied (the engine's count of live queries
per insertion time, or the clock still reading it).  These tests pin:

* who gets a key, and the ``share_lookups`` / ``share_hits`` counters;
* that the narrowed rule stores, fans out and answers exactly as giving
  every state a key does (the lifecycle's ``tied`` forced to always say yes),
  over generated runs: batch and drained submission with repeated query
  texts, no window, tuple and time windows, joins of two to four
  relations, duplicate-valued tuples, ``publish_batch`` bursts, both store
  backends and both runtimes.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.config import RJoinConfig
from repro.core.engine import RJoinEngine
from repro.core.protocol import QueryState
from repro.core.rewriting import canonical_state_key
from repro.core.windows import WindowState
from repro.data.schema import Catalog
from repro.sql.parser import parse_query
from tests.core.test_properties import _plan_cases, _plan_catalog, _plan_values


def three_relation_catalog() -> Catalog:
    catalog = Catalog()
    catalog.add_relation("R", ["a", "b"])
    catalog.add_relation("S", ["c", "d"])
    catalog.add_relation("T", ["e", "f"])
    return catalog


CATALOG = three_relation_catalog()
TWO_WAY = "SELECT R.a, S.d FROM R, S WHERE R.b = S.c"
THREE_WAY = "SELECT R.a, T.f FROM R, S, T WHERE R.b = S.c AND S.d = T.e"


def as_bag(values):
    return sorted(repr(value) for value in values)


def state_of(sql, consumed, insertion_time=2.0, span=WindowState(3.0, 4.0)):
    return QueryState(
        query_id="q",
        owner="n0",
        query=parse_query(sql, catalog=CATALOG),
        insertion_time=insertion_time,
        is_input=consumed == 0,
        window_state=None if consumed == 0 else span,
        consumed=consumed,
    )


class TestWhoGetsAKey:
    @pytest.mark.parametrize("consumed", [0, 1, 2])
    def test_a_tuple_window_that_names_its_tuples_needs_a_tie(self, consumed):
        state = state_of(THREE_WAY + " WINDOW 5 TUPLES", consumed)
        assert canonical_state_key(state, lambda insertion_time: False) is None
        asked = []
        key = canonical_state_key(state, lambda t: asked.append(t) or True)
        assert key == canonical_state_key(state) and key is not None
        assert asked == [2.0]

    @pytest.mark.parametrize(
        "window, consumed",
        [("", 1), (" WINDOW 5 TIME", 1), (" WINDOW 5 TUPLES", 3)],
    )
    def test_a_window_that_does_not_name_them_always_gets_one(self, window, consumed):
        state = state_of(THREE_WAY + window, consumed)

        def never_asked(insertion_time):
            raise AssertionError("the key does not depend on a tie")

        assert canonical_state_key(state, never_asked) == canonical_state_key(state)
        assert canonical_state_key(state) is not None


def engine_for(**overrides) -> RJoinEngine:
    params = {"num_nodes": 16, "seed": 9}
    params.update(overrides)
    return RJoinEngine(RJoinConfig(**params), catalog=CATALOG)


def stored_records(engine: RJoinEngine) -> int:
    """Input and rewritten query records resident on every node."""
    return sum(
        len(node.input_queries) + len(node.rewritten_queries)
        for node in engine.nodes.values()
    )


def every_state_keyed(engine: RJoinEngine) -> RJoinEngine:
    """The rule before the narrowing: every state that may share gets a key."""
    engine.lifecycle.tied = lambda insertion_time: True
    return engine


class TestShareCounters:
    def test_drained_tuple_window_submissions_look_nothing_up(self):
        engine = engine_for()
        handles = [
            engine.submit(THREE_WAY + f" AND R.a = {a} WINDOW 6 TUPLES")
            for a in range(3)
        ]
        assert len({handle.insertion_time for handle in handles}) == 3
        for step in range(12):
            engine.publish("RST"[step % 3], (step % 2, step % 2))
        summary = engine.metrics_summary()
        assert sum(handle.count for handle in handles) > 0
        assert summary["share_lookups"] == summary["share_hits"] == 0.0
        # Forced keys look every kept state up, and find nothing either.
        forced = every_state_keyed(engine_for())
        for handle in handles:
            forced.submit(handle.query)
        for step in range(12):
            forced.publish("RST"[step % 3], (step % 2, step % 2))
        assert forced.metrics_summary()["share_lookups"] > 0
        assert forced.metrics_summary()["share_hits"] == 0.0

    @pytest.mark.parametrize("window", ["", " WINDOW 4 TUPLES"])
    def test_each_hit_of_a_twin_batch_is_a_record_saved(self, window):
        def submitted(copies):
            engine = engine_for()
            for _ in range(copies):
                for a in range(3):
                    engine.submit(TWO_WAY + f" AND R.a = {a}" + window, process=False)
            engine.run()
            return stored_records(engine), engine.metrics_summary()

        (shared, summary), (single, _) = submitted(4), submitted(1)
        assert shared == single == 3
        assert summary["share_hits"] == 4 * single - shared
        assert summary["share_lookups"] == 12.0

    def test_each_hit_of_equal_windowless_states_is_a_record_saved(self):
        engine = engine_for()
        handle = engine.submit(TWO_WAY)
        for _ in range(3):
            engine.publish("R", (1, 10))  # equal values, distinct tuples
        summary = engine.metrics_summary()
        # One input record and one rewritten record host all four states.
        assert stored_records(engine) == 2
        assert summary["share_hits"] == 2.0
        assert summary["share_lookups"] == 4.0
        engine.publish("S", (10, 7))
        assert as_bag(handle.values()) == as_bag([(1, 7)] * 3)

    def test_a_clock_that_has_not_moved_still_ties_drained_submissions(self):
        """At zero hop delay a drained submission leaves the clock where it
        was, so the next query gets the same insertion time: the first
        one's states must already be in the index for the second to share."""

        def run(copies):
            engine = engine_for(hop_delay=0.0)
            handles = [
                engine.submit(TWO_WAY + " WINDOW 4 TUPLES") for _ in range(copies)
            ]
            for row in [("R", (1, 10)), ("S", (10, 2)), ("R", (4, 10))]:
                engine.publish(*row)
            return engine, handles

        (shared, twins), (single, alone) = run(3), run(1)
        assert len({handle.insertion_time for handle in twins}) == 1
        for handle in twins + alone:
            assert as_bag(handle.values()) == as_bag([(1, 2), (4, 2)])
        assert stored_records(shared) == stored_records(single)
        summary = shared.metrics_summary()
        assert summary["share_hits"] > 0 and summary["shared_state_fanout"] > 0

    def test_removing_a_twin_unties_its_insertion_time(self):
        engine = engine_for()
        first = engine.submit(TWO_WAY + " WINDOW 4 TUPLES", process=False)
        second = engine.submit(TWO_WAY + " WINDOW 4 TUPLES", process=False)
        engine.run()
        lifecycle = engine.lifecycle
        assert lifecycle._live_at == {first.insertion_time: 2}
        engine.tick(1.0)
        assert lifecycle.tied(first.insertion_time)
        engine.remove_query(second.query_id)
        assert lifecycle._live_at == {first.insertion_time: 1}
        assert not lifecycle.tied(first.insertion_time)
        engine.remove_query(first.query_id)
        assert lifecycle._live_at == {}


# ---------------------------------------------------------------------------
# Equivalence: the narrowed rule against every state keyed
# ---------------------------------------------------------------------------
_rows = st.tuples(
    st.sampled_from(_plan_catalog.relation_names()),
    st.tuples(_plan_values, _plan_values, _plan_values),
)
_ops = st.lists(
    st.one_of(
        # A group of submissions: batched (one run() at the end) or drained
        # one by one; indexes into the query pool, so texts repeat.
        st.tuples(
            st.just("submit"),
            st.lists(st.integers(0, 2), min_size=1, max_size=3),
            st.booleans(),
        ),
        st.tuples(st.just("publish"), _rows),
        st.tuples(st.just("burst"), st.lists(_rows, min_size=2, max_size=6)),
        st.tuples(st.just("tick"), st.sampled_from([0.5, 1.0, 3.0])),
        st.tuples(st.just("remove"), st.integers(0, 20)),
    ),
    min_size=1,
    max_size=12,
)


def run_ops(config, pool, ops, keyed):
    """Run ``ops``; returns what sharing decides (records, current storage,
    fan-out, hits and every handle's bag) and the lookups it took."""
    engine = RJoinEngine(config, catalog=_plan_catalog)
    if keyed:
        every_state_keyed(engine)
    handles, live = [], []
    try:
        for op in ops:
            if op[0] == "submit":
                _, picks, batched = op
                for pick in picks:
                    handles.append(engine.submit(pool[pick], process=not batched))
                    live.append(handles[-1].query_id)
                engine.run()
            elif op[0] == "publish":
                engine.publish(*op[1])
            elif op[0] == "burst":
                engine.publish_batch(op[1])
            elif op[0] == "tick":
                engine.tick(op[1])
            elif live:
                engine.remove_query(live.pop(op[1] % len(live)))
        summary = engine.metrics_summary()
        return (
            stored_records(engine),
            summary["current_storage"],
            summary["shared_state_fanout"],
            summary["share_hits"],
            [as_bag(handle.values()) for handle in handles],
        ), summary["share_lookups"]
    finally:
        engine.close()


@st.composite
def _runs(draw):
    pool = [draw(_plan_cases())[0] for _ in range(3)]
    runtime = draw(st.sampled_from(("sim", "asyncio")))
    config = RJoinConfig(
        num_nodes=8,
        seed=draw(st.integers(0, 3)),
        runtime=runtime,
        store_backend=draw(st.sampled_from(("memory", "sqlite"))),
        # At zero delay the clock stands still through a drained submission,
        # so queries submitted one by one can tie too.
        hop_delay=draw(st.sampled_from((0.0, 1.0))),
        gc_every_tuples=2,
    )
    return config, pool, draw(_ops)


#: The tier-1 budget; ``--hypothesis-profile generator`` replaces it.
TIER1 = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
_long_run = settings.default is settings.get_profile("generator")


def plan_query(sql):
    return parse_query(sql, catalog=_plan_catalog)


#: Two drained submissions of one tuple-window query at zero delay: the
#: first one's input state is stored while the clock still reads its
#: insertion time, and must be filed for the second to find it.
TIED_BY_THE_CLOCK = (
    RJoinConfig(num_nodes=8, seed=0, hop_delay=0.0, gc_every_tuples=2),
    [plan_query("SELECT R0.a0 FROM R0, R1 WHERE R0.a0 = R1.a0 WINDOW 5 TUPLES")],
    [("submit", [0, 0], False)],
)

#: A four-way join over a burst of equal-valued tuples, two of each
#: relation: states that consumed three tuples agree on their clocks while
#: a middle tuple differs.
TWINS_IN_THE_MIDDLE = (
    RJoinConfig(num_nodes=8, seed=0, gc_every_tuples=2),
    [
        plan_query(
            "SELECT R0.a0 FROM R0, R1, R2, R3 WHERE R0.a0 = R1.a0 "
            "AND R1.a0 = R2.a0 AND R2.a0 = R3.a0 WINDOW 10 TUPLES"
        )
    ],
    [
        ("submit", [0], False),
        ("burst", [(name, (0, 0, 0)) for name in ("R0", "R1", "R2", "R3") * 2]),
    ],
)

#: Equal-valued tuples of both relations, in one burst (one publication
#: time) and then one by one, into a time-window and a windowless query:
#: their equal states are named by nothing the window holds.
EQUAL_VALUES_UNNAMED = (
    RJoinConfig(num_nodes=8, seed=0, gc_every_tuples=2),
    [
        plan_query("SELECT R0.a0 FROM R0, R1 WHERE R0.a0 = R1.a0" + window)
        for window in (" WINDOW 3 TIME", "")
    ],
    [
        ("submit", [0], False),
        ("submit", [1], False),
        ("burst", [(name, (0, 0, 0)) for name in ("R0", "R0", "R1", "R1")]),
        ("publish", ("R0", (0, 1, 1))),
        ("publish", ("R0", (0, 1, 1))),
    ],
)


@pytest.mark.hard_timeout(900 if _long_run else 120)
@(settings.default if _long_run else TIER1)
@given(_runs())
@example(run=TIED_BY_THE_CLOCK)
@example(run=TWINS_IN_THE_MIDDLE)
@example(run=EQUAL_VALUES_UNNAMED)
def test_narrowed_share_keys_store_and_answer_as_every_state_keyed(run):
    config, pool, ops = run
    narrowed, lookups = run_ops(config, pool, ops, keyed=False)
    forced, forced_lookups = run_ops(config, pool, ops, keyed=True)
    assert narrowed == forced
    assert lookups <= forced_lookups
