"""Engine-level API tests: submission, publication, answers, metrics."""

import pytest

from repro.core.config import RJoinConfig
from repro.core.engine import RJoinEngine
from repro.errors import (
    EngineError,
    QueryRegistrationError,
    SchemaError,
    SimulationError,
    UnknownRelationError,
)
from repro.net.runtime import TRANSPORT_NAMES
from repro.sql.ast import WindowSpec
from repro.sql.parser import parse_query


class TestBasicJoins:
    def test_two_way_join_single_answer(self, engine):
        handle = engine.submit("SELECT R.a, S.d FROM R, S WHERE R.b = S.c")
        engine.publish("R", (1, 10))
        engine.publish("S", (10, 99))
        assert handle.values() == [(1, 99)]

    def test_two_way_join_reverse_arrival_order(self, engine):
        handle = engine.submit("SELECT R.a, S.d FROM R, S WHERE R.b = S.c")
        engine.publish("S", (10, 99))
        engine.publish("R", (1, 10))
        assert handle.values() == [(1, 99)]

    def test_three_way_join_paper_style(self, engine):
        handle = engine.submit(
            "SELECT R.a, T.f FROM R, S, T WHERE R.b = S.c AND S.d = T.e"
        )
        engine.publish("R", (1, 10))
        engine.publish("S", (10, 20))
        engine.publish("T", (20, 99))
        assert handle.values() == [(1, 99)]

    def test_no_answer_for_non_matching_tuples(self, engine):
        handle = engine.submit("SELECT R.a FROM R, S WHERE R.b = S.c")
        engine.publish("R", (1, 10))
        engine.publish("S", (11, 99))
        assert handle.values() == []

    def test_multiple_matches_bag_semantics(self, engine):
        handle = engine.submit("SELECT R.a, S.d FROM R, S WHERE R.b = S.c")
        engine.publish("R", (1, 10))
        engine.publish("S", (10, 5))
        engine.publish("S", (10, 6))
        assert sorted(handle.values()) == [(1, 5), (1, 6)]

    def test_selection_predicate(self, engine):
        handle = engine.submit("SELECT R.a FROM R, S WHERE R.b = S.c AND S.d = 7")
        engine.publish("R", (1, 10))
        engine.publish("S", (10, 7))
        engine.publish("S", (10, 8))
        assert handle.values() == [(1,)]

    def test_single_relation_filter_query(self, engine):
        handle = engine.submit("SELECT R.a FROM R WHERE R.b = 3")
        engine.publish("R", (1, 3))
        engine.publish("R", (2, 4))
        assert handle.values() == [(1,)]

    def test_tuples_before_submission_do_not_count(self, engine):
        engine.publish("R", (1, 10))
        handle = engine.submit("SELECT R.a, S.d FROM R, S WHERE R.b = S.c")
        engine.publish("S", (10, 99))
        assert handle.values() == []

    def test_multiple_queries_share_tuples(self, engine):
        first = engine.submit("SELECT R.a FROM R, S WHERE R.b = S.c")
        second = engine.submit("SELECT S.d FROM R, S WHERE R.b = S.c")
        engine.publish("R", (1, 10))
        engine.publish("S", (10, 42))
        assert first.values() == [(1,)]
        assert second.values() == [(42,)]

    def test_distinct_query(self, engine):
        handle = engine.submit(
            "SELECT DISTINCT R.a, S.d FROM R, S WHERE R.b = S.c"
        )
        engine.publish("R", (1, 10))
        engine.publish("R", (1, 10))
        engine.publish("S", (10, 5))
        assert handle.distinct_values() == {(1, 5)}
        assert len(handle.values()) == 1


class TestEngineApi:
    def test_submit_accepts_parsed_queries(self, engine, small_catalog):
        query = parse_query(
            "SELECT R.a FROM R, S WHERE R.b = S.c", catalog=small_catalog
        )
        handle = engine.submit(query)
        assert handle.query == query

    def test_submit_with_window_override(self, engine):
        handle = engine.submit(
            "SELECT R.a FROM R, S WHERE R.b = S.c",
            window=WindowSpec(size=5, mode="tuples"),
        )
        assert handle.query.window.size == 5

    def test_submit_with_explicit_owner(self, engine):
        owner = engine.ring.addresses[0]
        handle = engine.submit("SELECT R.a FROM R", owner=owner)
        assert handle.owner == owner
        assert handle.query_id.startswith(owner)

    def test_submit_unknown_owner_rejected(self, engine):
        with pytest.raises(QueryRegistrationError):
            engine.submit("SELECT R.a FROM R", owner="nope")

    def test_publish_unknown_relation_rejected(self, engine):
        with pytest.raises(UnknownRelationError):
            engine.publish("ZZ", (1,))

    def test_publish_unknown_publisher_rejected(self, engine):
        with pytest.raises(EngineError):
            engine.publish("R", (1, 2), publisher="ghost")

    def test_publish_without_processing_then_run(self, engine):
        handle = engine.submit("SELECT R.a FROM R, S WHERE R.b = S.c")
        engine.publish("R", (1, 10), process=False)
        engine.publish("S", (10, 3), process=False)
        assert handle.values() == []
        engine.run()
        assert handle.values() == [(1,)]

    def test_handles_registry(self, engine):
        handle = engine.submit("SELECT R.a FROM R")
        assert engine.handle(handle.query_id) is handle
        assert handle.query_id in engine.handles
        with pytest.raises(EngineError):
            engine.handle("missing")

    def test_query_ids_are_unique(self, engine):
        ids = {engine.submit("SELECT R.a FROM R").query_id for _ in range(5)}
        assert len(ids) == 5

    def test_tick_advances_clock(self, engine):
        before = engine.now
        engine.tick(5.0)
        assert engine.now == before + 5.0

    @pytest.mark.parametrize("runtime", TRANSPORT_NAMES)
    def test_non_finite_tick_and_membership_delay_are_refused(
        self, small_catalog, runtime
    ):
        # A NaN clock would stamp every later tuple's pub_time NaN.
        with RJoinEngine(
            RJoinConfig(num_nodes=8, seed=1, runtime=runtime), catalog=small_catalog
        ) as engine:
            engine.tick(2.0)
            for bad in (float("nan"), float("inf")):
                with pytest.raises(SimulationError, match="non-finite"):
                    engine.tick(bad)
                with pytest.raises(SimulationError, match="non-finite"):
                    engine.schedule_membership_op("join", delay=bad)
            assert engine.now == 2.0
            assert engine.transport.pending_events == 0
            assert engine.publish("R", (1, 2)).pub_time == 2.0

    def test_register_relation(self, engine):
        engine.register_relation("U", ["x"])
        handle = engine.submit("SELECT U.x FROM U")
        engine.publish("U", (7,))
        assert handle.values() == [(7,)]


class TestMetrics:
    def test_summary_keys_and_consistency(self, engine):
        engine.submit("SELECT R.a FROM R, S WHERE R.b = S.c")
        engine.publish("R", (1, 10))
        engine.publish("S", (10, 3))
        summary = engine.metrics_summary()
        assert summary["nodes"] == 16
        assert summary["published_tuples"] == 2
        assert summary["submitted_queries"] == 1
        assert summary["answers"] == 1
        assert summary["total_messages"] > 0
        assert summary["total_qpl"] > 0
        assert summary["total_storage"] > 0
        assert summary["messages_per_node"] == pytest.approx(
            summary["total_messages"] / 16
        )

    def test_tuple_publication_costs_messages(self, engine):
        before = engine.traffic.total_messages
        engine.publish("R", (1, 2))
        # 2 keys per attribute, 2 attributes, each routed over >= 0 hops; at
        # least some messages must have been transmitted in a 16-node ring.
        assert engine.traffic.total_messages > before

    def test_distributions_cover_all_nodes_or_less(self, engine):
        engine.submit("SELECT R.a FROM R, S WHERE R.b = S.c")
        engine.publish("R", (1, 10))
        assert len(engine.qpl_distribution()) <= 16
        assert all(
            a >= b
            for a, b in zip(
                engine.qpl_distribution(), engine.qpl_distribution()[1:]
            )
        )

    def test_storage_distribution_current_vs_cumulative(self, engine):
        engine.submit("SELECT R.a FROM R, S WHERE R.b = S.c")
        engine.publish("R", (1, 10))
        current = sum(engine.storage_distribution(current=True))
        cumulative = sum(engine.storage_distribution(current=False))
        assert current <= cumulative


class TestStrategiesProduceSameAnswers:
    @pytest.mark.parametrize("strategy", ["rjoin", "first"])
    def test_value_level_strategies_complete(self, small_catalog, strategy):
        config = RJoinConfig(
            num_nodes=16,
            seed=3,
            strategy=strategy,
            allow_attribute_level_rewrites=False,
        )
        engine = RJoinEngine(config, catalog=small_catalog)
        handle = engine.submit(
            "SELECT R.a, T.f FROM R, S, T WHERE R.b = S.c AND S.d = T.e"
        )
        engine.publish("R", (1, 10))
        engine.publish("S", (10, 20))
        engine.publish("T", (20, 99))
        assert handle.values() == [(1, 99)]


class TestBatchSequentialEquivalence:
    """Same seed ⇒ batch and per-tuple publication agree (all strategies)."""

    ROWS = [
        ("R", (1, 10)),
        ("S", (10, 20)),
        ("T", (20, 99)),
        ("R", (2, 10)),
        ("S", (3, 4)),
        ("T", (4, 7)),
        ("S", (10, 21)),
        ("T", (21, 55)),
    ]
    SQL = "SELECT R.a, T.f FROM R, S, T WHERE R.b = S.c AND S.d = T.e"
    #: Traffic totals are allowed to differ for RJoin only: with one drain per
    #: batch, rewritten queries can be in flight concurrently, so an indexing
    #: decision may meet a candidate table that does not know yet what a
    #: sequential run had already learnt — it asks (or waits with a chain in
    #: flight) where the sequential run looks up, and every transmitted
    #: message is counted.  The same goes for the arcs: a batch's tuples all
    #: leave before the first owner says which arc it owns, so fewer of them
    #: go in one hop.  Load, storage and answer metrics must match exactly
    #: for every strategy.
    TRAFFIC_KEYS = (
        "total_messages",
        "ric_messages",
        "messages_per_node",
        "ric_messages_per_node",
        "ric_chains_started",
        "ric_questions_joined",
        "arc_sends_direct",
    )
    #: The trigger-path observables may differ for *every* strategy: a
    #: rewritten query still in flight when a later batch tuple lands is
    #: matched by the stored-tuple catch-up on its arrival instead of by the
    #: tuple-arrival probe, moving work between the counted probe path and
    #: the uncounted catch-up.  Answers and load metrics still match exactly.
    MATCHING_KEYS = (
        "queries_triggered",
        "trigger_candidates_scanned",
        "shared_state_fanout",
    )

    @pytest.mark.parametrize("strategy", ["rjoin", "random", "worst", "first"])
    def test_batch_matches_sequential(self, small_catalog, strategy):
        sequential = RJoinEngine(
            RJoinConfig(num_nodes=16, seed=7, strategy=strategy),
            catalog=small_catalog,
        )
        batched = RJoinEngine(
            RJoinConfig(num_nodes=16, seed=7, strategy=strategy),
            catalog=small_catalog,
        )
        h_seq = sequential.submit(self.SQL)
        h_batch = batched.submit(self.SQL)
        for relation, values in self.ROWS:
            sequential.publish(relation, values)
        batched.publish_batch(self.ROWS)

        assert sorted(h_seq.values()) == sorted(h_batch.values())
        summary_seq = sequential.metrics_summary()
        summary_batch = batched.metrics_summary()
        assert set(summary_seq) == set(summary_batch)
        exempt = set(self.MATCHING_KEYS)
        if strategy == "rjoin":
            exempt |= set(self.TRAFFIC_KEYS)
        for key in summary_seq:
            if key in exempt:
                continue
            assert summary_seq[key] == summary_batch[key], key

    @pytest.mark.parametrize("strategy", ["random", "worst", "first"])
    def test_summaries_identical_for_oracle_and_random_strategies(
        self, small_catalog, strategy
    ):
        sequential = RJoinEngine(
            RJoinConfig(num_nodes=16, seed=11, strategy=strategy),
            catalog=small_catalog,
        )
        batched = RJoinEngine(
            RJoinConfig(num_nodes=16, seed=11, strategy=strategy),
            catalog=small_catalog,
        )
        sequential.submit(self.SQL)
        batched.submit(self.SQL)
        for relation, values in self.ROWS:
            sequential.publish(relation, values)
        batched.publish_batch(self.ROWS)
        summary_seq = sequential.metrics_summary()
        summary_batch = batched.metrics_summary()
        for key in self.MATCHING_KEYS:
            summary_seq.pop(key)
            summary_batch.pop(key)
        assert summary_seq == summary_batch


class TestPublishBatch:
    def _rows(self):
        return [
            ("R", (1, 10)),
            ("S", (10, 20)),
            ("T", (20, 99)),
            ("R", (2, 10)),
        ]

    def test_batch_produces_same_answers_as_sequential(self, small_catalog):
        sequential = RJoinEngine(
            RJoinConfig(num_nodes=16, seed=7), catalog=small_catalog
        )
        batched = RJoinEngine(RJoinConfig(num_nodes=16, seed=7), catalog=small_catalog)
        sql = "SELECT R.a, T.f FROM R, S, T WHERE R.b = S.c AND S.d = T.e"
        h1 = sequential.submit(sql)
        h2 = batched.submit(sql)
        for relation, values in self._rows():
            sequential.publish(relation, values)
        batched.publish_batch(self._rows())
        assert sorted(h1.values()) == sorted(h2.values())
        assert sorted(h2.values()) == [(1, 99), (2, 99)]

    def test_batch_returns_tuples_with_distinct_sequences(self, engine):
        published = engine.publish_batch(self._rows())
        assert len(published) == 4
        assert len({tup.sequence for tup in published}) == 4
        assert engine.published_tuples == 4

    def test_batch_with_fixed_publisher(self, engine):
        address = engine.ring.addresses[0]
        published = engine.publish_batch(self._rows(), publisher=address)
        assert all(tup.publisher == address for tup in published)

    def test_batch_rejects_unknown_relation(self, engine):
        with pytest.raises(UnknownRelationError):
            engine.publish_batch([("nope", (1, 2))])

    def test_batch_rejects_unknown_publisher(self, engine):
        with pytest.raises(EngineError):
            engine.publish_batch(self._rows(), publisher="not-a-node")

    @pytest.fixture
    def worst(self, small_catalog):
        """An engine whose strategy reads the rate oracle, so it counts."""
        return RJoinEngine(
            RJoinConfig(num_nodes=16, seed=7, strategy="worst"), catalog=small_catalog
        )

    def test_the_oracle_counts_only_for_a_strategy_that_reads_it(
        self, engine, worst
    ):
        for eng in (engine, worst):
            eng.publish_batch(self._rows())
        assert engine._oracle_counts == {}
        # Four tuples of two attributes: one value and one attribute key each.
        assert sum(worst._oracle_counts.values()) == 4 * 2 * 2

    def _engine_state(self, engine):
        return (
            engine._sequence,
            dict(engine._oracle_counts),
            engine.published_tuples,
            engine.traffic.total_messages,
            engine.loads.total_storage_load,
        )

    def test_failed_batch_leaves_engine_state_untouched(self, worst):
        """Regression: a wrong-arity row mid-batch must not leak state.

        Before the fix, a failed 2-row batch left ``_sequence == 2`` and four
        phantom ``_oracle_counts`` behind with ``_published == 0``, silently
        skewing the Worst baseline's rate oracle for every later experiment.
        """
        engine = worst
        before = self._engine_state(engine)
        with pytest.raises(SchemaError):
            engine.publish_batch([("R", (1, 10)), ("S", (1, 2, 3))])
        assert self._engine_state(engine) == before
        assert engine._sequence == 0
        assert engine._oracle_counts == {}

    def test_failed_batch_unknown_relation_leaves_state_untouched(self, worst):
        engine = worst
        before = self._engine_state(engine)
        with pytest.raises(UnknownRelationError):
            engine.publish_batch([("R", (1, 10)), ("nope", (1, 2))])
        assert self._engine_state(engine) == before

    def test_failed_publish_leaves_sequence_untouched(self, worst):
        engine = worst
        with pytest.raises(SchemaError):
            engine.publish("R", (1, 2, 3))
        assert engine._sequence == 0
        assert engine._oracle_counts == {}

    @pytest.mark.parametrize("bad_row", [("R",), ("R", 1, 2, 3), 42, ("R", 5)])
    def test_batch_malformed_rows_raise_engine_error(self, worst, bad_row):
        engine = worst
        before = self._engine_state(engine)
        with pytest.raises(EngineError) as excinfo:
            engine.publish_batch([("R", (1, 10)), bad_row])
        assert "publish_batch" in str(excinfo.value)
        assert self._engine_state(engine) == before

    @pytest.mark.parametrize("bad_values", [5, None, 2.5, object()])
    def test_publish_malformed_values_raise_engine_error(self, worst, bad_values):
        """``publish`` validates like a one-row ``publish_batch``, naming itself."""
        engine = worst
        before = self._engine_state(engine)
        with pytest.raises(EngineError) as excinfo:
            engine.publish("R", bad_values)
        assert "publish row 0" in str(excinfo.value)
        assert self._engine_state(engine) == before

    def test_oracle_rate_unaffected_by_failed_batch(self, worst):
        engine = worst
        engine.publish("R", (1, 10))
        rate_before = dict(engine._oracle_counts)
        assert rate_before
        with pytest.raises(SchemaError):
            engine.publish_batch([("R", (2, 20)), ("S", (1,))])
        assert engine._oracle_counts == rate_before

    def test_batch_traffic_accounting_matches_message_count(self, small_catalog):
        engine = RJoinEngine(RJoinConfig(num_nodes=16, seed=7), catalog=small_catalog)
        engine.publish_batch([("R", (1, 2))])
        # 2 attributes x 2 levels = 4 messages; every transmission (send or
        # forwarded hop) must be charged to exactly one node.
        per_node = sum(t.total for t in engine.traffic.per_node().values())
        assert per_node == engine.traffic.total_messages
        assert engine.traffic.total_messages >= 1
