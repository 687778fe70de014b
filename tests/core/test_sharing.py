"""Multi-query state sharing and the predicate-aware query index.

The contract of PR 8's matching subsystem:

* sharing is *transparent*: every handle's answer bag equals the reference
  oracle's, across all four indexing strategies and both store backends,
* the subscriber list is a multiset — two canonically equal partial states
  of the *same* query (derived from distinct tuples with identical values)
  each deliver their copy of every future answer,
* removal, re-submission and owner crashes interact correctly with shared
  records (detach-and-promote, never drop a co-subscriber's state),
* the predicate-aware index keeps the tuple-arrival probe sublinear in the
  resident query count: only records whose discriminating selection the
  tuple satisfies (plus wildcard records) are fetched.
"""

from __future__ import annotations

import pytest

from repro.core.config import RJoinConfig
from repro.core.engine import RJoinEngine
from repro.core.reference import ReferenceEngine
from repro.data.backends import BACKEND_NAMES
from repro.data.schema import Catalog
from repro.workload.generator import WorkloadGenerator, WorkloadSpec

STRATEGIES = ("rjoin", "random", "worst", "first")


def two_relation_catalog() -> Catalog:
    catalog = Catalog()
    catalog.add_relation("R", ["a", "b"])
    catalog.add_relation("S", ["c", "d"])
    return catalog


def as_bag(values):
    return sorted(repr(v) for v in values)


def run_workload(
    *,
    strategy: str = "rjoin",
    backend: str = "memory",
    queries: int = 6,
    tuples: int = 30,
    seed: int = 17,
):
    """Run a random workload; returns ``(engine, reference, handles)``."""
    spec = WorkloadSpec(
        num_relations=4,
        attributes_per_relation=3,
        value_domain=3,
        join_arity=2,
        seed=seed,
    )
    generator = WorkloadGenerator(spec)
    engine = RJoinEngine(
        RJoinConfig(
            num_nodes=16,
            seed=seed,
            strategy=strategy,
            store_backend=backend,
        )
    )
    engine.register_catalog(generator.catalog)
    reference = ReferenceEngine(generator.catalog)
    handles = []
    sqls = generator.generate_queries(queries)
    for query in sqls:
        handle = engine.submit(query)
        handles.append(handle)
        reference.submit(
            query,
            query_id=handle.query_id,
            insertion_time=handle.insertion_time,
        )
    for generated in generator.generate_tuples(tuples):
        tup = engine.publish(generated.relation, generated.values)
        reference.publish_tuple(tup)
    return engine, reference, handles, sqls


def assert_matches_oracle(handles, reference):
    for handle in handles:
        assert as_bag(handle.values()) == as_bag(
            reference.answers(handle.query_id)
        ), handle.query_id


class TestSharingTransparency:
    """Shared matching is bag-equal to the oracle."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_shared_matches_oracle(self, strategy, backend):
        _, reference, handles, _ = run_workload(strategy=strategy, backend=backend)
        assert sum(h.count for h in handles) > 0
        assert_matches_oracle(handles, reference)

    def test_identical_queries_share_state_and_fan_out(self):
        """N copies of one query keep one shared record chain, N answer streams."""
        catalog = two_relation_catalog()
        sql = "SELECT R.a, S.d FROM R, S WHERE R.b = S.c"
        copies = 5

        def run(submissions):
            engine = RJoinEngine(
                RJoinConfig(num_nodes=16, seed=9), catalog=catalog
            )
            # Batch submission: equal insertion times are the sharing
            # precondition (states submitted at different times admit
            # different tuple suffixes and must stay separate).
            handles = [
                engine.submit(sql, process=False) for _ in range(submissions)
            ]
            engine.run()
            for row in [("R", (1, 10)), ("S", (10, 2)), ("S", (10, 3)), ("R", (4, 10))]:
                engine.publish(*row)
            return engine, handles

        shared_engine, shared_handles = run(copies)
        single_engine, single_handles = run(1)
        expected = as_bag([(1, 2), (1, 3), (4, 2), (4, 3)])
        for handle in shared_handles + single_handles:
            assert as_bag(handle.values()) == expected
        shared_summary = shared_engine.metrics_summary()
        single_summary = single_engine.metrics_summary()
        # The co-subscribers ride the first copy's physical records: N copies
        # store exactly what one copy does...
        assert shared_summary["shared_state_fanout"] > 0.0
        assert (
            shared_summary["current_storage"]
            == single_summary["current_storage"]
        )
        # ...while every answer delivery is still accounted per subscriber.
        assert shared_summary["answers"] == copies * single_summary["answers"]

    def test_duplicate_tuples_preserve_answer_multiplicity(self):
        """Canonically equal states of the same query stay a multiset.

        Two identical-valued (but distinct) R tuples derive two equal
        rewritten states; merging them must deliver *two* copies of every
        answer they complete — the regression that motivated multiset
        subscribers.
        """
        catalog = two_relation_catalog()
        engine = RJoinEngine(
            RJoinConfig(num_nodes=16, seed=9),
            catalog=catalog,
        )
        handle = engine.submit("SELECT R.a, S.d FROM R, S WHERE R.b = S.c")
        engine.publish("R", (1, 10))
        engine.publish("R", (1, 10))  # identical values, distinct tuple
        engine.publish("S", (10, 7))
        assert as_bag(handle.values()) == as_bag([(1, 7), (1, 7)])


class TestSharingLifecycle:
    """Retraction, re-submission and failover on shared records."""

    def test_remove_one_subscriber_keeps_the_others(self):
        catalog = two_relation_catalog()
        sql = "SELECT R.a, S.d FROM R, S WHERE R.b = S.c"
        engine = RJoinEngine(
            RJoinConfig(num_nodes=16, seed=9),
            catalog=catalog,
        )
        keep = engine.submit(sql, process=False)
        drop = engine.submit(sql, process=False)
        engine.run()
        engine.publish("R", (1, 10))
        engine.remove_query(drop.query_id)
        # No state of the removed query survives anywhere...
        for node in engine.nodes.values():
            for table in (node.input_queries, node.rewritten_queries):
                for _, records in table.items():
                    for record in records:
                        assert not record.state.serves(drop.query_id)
        # ...while the survivor keeps matching.
        engine.publish("S", (10, 7))
        assert as_bag(keep.values()) == as_bag([(1, 7)])
        assert drop.count == 0  # nothing delivered after removal

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_remove_then_resubmit_matches_oracle(self, strategy):
        engine, reference, handles, sqls = run_workload(
            strategy=strategy, queries=6, tuples=15, seed=23
        )
        victim = handles[2]
        victim_sql = sqls[2]
        engine.remove_query(victim.query_id)
        reference.remove_query(victim.query_id)
        resubmitted = engine.submit(victim_sql)
        reference.submit(
            victim_sql,
            query_id=resubmitted.query_id,
            insertion_time=resubmitted.insertion_time,
        )
        handles[2] = resubmitted
        spec = WorkloadSpec(
            num_relations=4,
            attributes_per_relation=3,
            value_domain=3,
            join_arity=2,
            seed=24,
        )
        for generated in WorkloadGenerator(spec).generate_tuples(15):
            tup = engine.publish(generated.relation, generated.values)
            reference.publish_tuple(tup)
        assert_matches_oracle(handles, reference)
        assert engine.churn.orphaned_state_records == 0

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_owner_crash_mid_flight_keeps_co_subscribers(self, strategy):
        """Crashing one subscriber's owner must not starve the others.

        The crash victim is a single-identifier arc (it owns queries but
        essentially no key-range state), so the only moving part is the
        lifecycle failover of its subscriptions on shared records.
        """
        spec = WorkloadSpec(
            num_relations=4,
            attributes_per_relation=3,
            value_domain=3,
            join_arity=2,
            seed=31,
        )
        generator = WorkloadGenerator(spec)
        engine = RJoinEngine(
            RJoinConfig(num_nodes=24, seed=31, strategy=strategy)
        )
        engine.register_catalog(generator.catalog)
        reference = ReferenceEngine(generator.catalog)
        anchor = engine.ring.nodes[0]
        victim = engine.add_node(
            node_id=(anchor.node_id + 1) % (2**engine.space.bits)
        )
        queries = generator.generate_queries(3)
        handles = []
        # Submit every query twice — once owned by the crash victim, once by
        # a default owner — so shared records serve subscribers on both.
        for query in queries:
            # Both copies submitted at the same kernel time, so their states
            # canonicalize together and shared records carry subscribers of
            # both owners.
            for owner in (victim, None):
                handle = engine.submit(query, owner=owner, process=False)
                reference.submit(
                    query,
                    query_id=handle.query_id,
                    insertion_time=handle.insertion_time,
                )
                handles.append(handle)
            engine.run()
        for generated in generator.generate_tuples(15):
            tup = engine.publish(generated.relation, generated.values)
            reference.publish_tuple(tup)
        engine.crash_node(victim)
        for generated in generator.generate_tuples(15):
            tup = engine.publish(generated.relation, generated.values)
            reference.publish_tuple(tup)
        assert_matches_oracle(handles, reference)


class TestQueryIndexSelectivity:
    """The probe fetches only records the tuple can actually rewrite."""

    def test_selective_queries_prune_candidate_scans(self):
        """100 queries with distinct selection constants: an arriving tuple
        probes only the handful whose constant it carries, not all 100."""
        catalog = two_relation_catalog()
        engine = RJoinEngine(
            RJoinConfig(num_nodes=16, seed=9, strategy="first"),
            catalog=catalog,
        )
        num_queries = 100
        for k in range(num_queries):
            engine.submit(
                f"SELECT R.a, S.d FROM R, S WHERE R.b = S.c AND R.a = {k}"
            )
        arrivals = 10
        for i in range(arrivals):
            engine.publish("R", (i % 5, 10))
        summary = engine.metrics_summary()
        # Pre-index, every R arrival scanned every resident input-query
        # record stored under its key (~num_queries); the predicate-aware
        # index fetches only the record whose constant matches.
        linear_floor = arrivals * num_queries
        assert summary["trigger_candidates_scanned"] < linear_floor / 10
        assert summary["queries_triggered"] >= arrivals

    def test_wildcard_queries_still_see_every_arrival(self):
        catalog = two_relation_catalog()
        engine = RJoinEngine(
            RJoinConfig(num_nodes=16, seed=9), catalog=catalog
        )
        handle = engine.submit("SELECT R.a, S.d FROM R, S WHERE R.b = S.c")
        engine.publish("R", (1, 10))
        engine.publish("R", (2, 10))
        engine.publish("S", (10, 5))
        assert as_bag(handle.values()) == as_bag([(1, 5), (2, 5)])
        assert engine.metrics_summary()["trigger_candidates_scanned"] > 0.0

    def test_counters_flow_through_summary_and_reset(self):
        catalog = two_relation_catalog()
        engine = RJoinEngine(
            RJoinConfig(num_nodes=16, seed=9), catalog=catalog
        )
        engine.submit("SELECT R.a, S.d FROM R, S WHERE R.b = S.c")
        engine.publish("R", (1, 10))
        engine.publish("S", (10, 5))
        summary = engine.metrics_summary()
        assert summary["queries_triggered"] == float(
            engine.churn.queries_triggered
        )
        assert summary["trigger_candidates_scanned"] == float(
            engine.churn.trigger_candidates_scanned
        )
        assert summary["shared_state_fanout"] == float(
            engine.churn.shared_state_fanout
        )
        engine.churn.reset()
        assert engine.churn.queries_triggered == 0
        assert engine.churn.trigger_candidates_scanned == 0
        assert engine.churn.shared_state_fanout == 0
