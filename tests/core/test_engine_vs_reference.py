"""Integration tests: RJoin vs the centralised oracle on randomized workloads.

These tests check the paper's formal claims end to end on delay-free runs:

* soundness + eventual completeness (Theorem 1): the bag of answers produced
  by the distributed engine equals the oracle's bag,
* no accidental duplicates (Theorem 2): exact bag equality, not just set
  equality,
* sliding-window joins and DISTINCT queries preserve the equivalence,
* the ALTT extension keeps completeness when tuples race queries under
  message delays.
"""

from __future__ import annotations

import random
from typing import List

import pytest

from repro.core.config import RJoinConfig
from repro.core.engine import RJoinEngine
from repro.core.reference import ReferenceEngine
from repro.errors import EngineError
from repro.sql.ast import WindowSpec
from repro.workload.generator import WorkloadGenerator, WorkloadSpec


def run_side_by_side(
    spec: WorkloadSpec,
    num_queries: int,
    num_tuples: int,
    config: RJoinConfig,
):
    """Run the same workload through RJoin and the reference oracle."""
    generator = WorkloadGenerator(spec)
    engine = RJoinEngine(config)
    engine.register_catalog(generator.catalog)
    reference = ReferenceEngine(generator.catalog)
    handles = []
    for query in generator.generate_queries(num_queries):
        handle = engine.submit(query)
        reference.submit(
            query, query_id=handle.query_id, insertion_time=handle.insertion_time
        )
        handles.append(handle)
    for generated in generator.generate_tuples(num_tuples):
        tup = engine.publish(generated.relation, generated.values)
        reference.publish_tuple(tup)
    return engine, reference, handles


def as_bag(values) -> List[str]:
    return sorted(repr(v) for v in values)


class TestBagEquivalence:
    def test_random_three_way_workload(self):
        spec = WorkloadSpec(
            num_relations=4,
            attributes_per_relation=3,
            value_domain=4,
            join_arity=3,
            seed=101,
        )
        engine, reference, handles = run_side_by_side(
            spec, num_queries=8, num_tuples=40, config=RJoinConfig(num_nodes=16, seed=1)
        )
        assert sum(h.count for h in handles) > 0, "workload produced no answers"
        for handle in handles:
            assert as_bag(handle.values()) == as_bag(reference.answers(handle.query_id))

    def test_random_four_way_workload(self):
        spec = WorkloadSpec(
            num_relations=5,
            attributes_per_relation=3,
            value_domain=3,
            join_arity=4,
            seed=202,
        )
        engine, reference, handles = run_side_by_side(
            spec, num_queries=6, num_tuples=40, config=RJoinConfig(num_nodes=24, seed=2)
        )
        for handle in handles:
            assert as_bag(handle.values()) == as_bag(reference.answers(handle.query_id))

    def test_two_way_specialisation_matches_sai(self):
        """m = 2 is the SAI algorithm of the earlier paper; it must be exact too."""
        spec = WorkloadSpec(
            num_relations=4,
            attributes_per_relation=3,
            value_domain=3,
            join_arity=2,
            seed=303,
        )
        engine, reference, handles = run_side_by_side(
            spec,
            num_queries=10,
            num_tuples=40,
            config=RJoinConfig(num_nodes=16, seed=3),
        )
        assert sum(h.count for h in handles) > 0
        for handle in handles:
            assert as_bag(handle.values()) == as_bag(reference.answers(handle.query_id))

    def test_first_strategy_with_value_level_rewrites_is_complete(self):
        spec = WorkloadSpec(
            num_relations=4,
            attributes_per_relation=3,
            value_domain=4,
            join_arity=3,
            seed=404,
        )
        config = RJoinConfig(
            num_nodes=16,
            seed=4,
            strategy="first",
            allow_attribute_level_rewrites=False,
        )
        engine, reference, handles = run_side_by_side(
            spec, num_queries=8, num_tuples=40, config=config
        )
        for handle in handles:
            assert as_bag(handle.values()) == as_bag(reference.answers(handle.query_id))


class TestWindowedEquivalence:
    @pytest.mark.parametrize("mode,size", [("tuples", 8), ("time", 60.0)])
    def test_window_joins_match_reference(self, mode, size):
        window = WindowSpec(size=size, mode=mode)
        spec = WorkloadSpec(
            num_relations=4,
            attributes_per_relation=3,
            value_domain=3,
            join_arity=3,
            seed=505,
            window=window,
        )
        config = RJoinConfig(num_nodes=16, seed=5, tuple_gc_window=window)
        engine, reference, handles = run_side_by_side(
            spec, num_queries=6, num_tuples=50, config=config
        )
        for handle in handles:
            assert as_bag(handle.values()) == as_bag(reference.answers(handle.query_id))

    def test_window_garbage_collection_reduces_state(self):
        window = WindowSpec(size=5, mode="tuples")
        spec = WorkloadSpec(
            num_relations=4,
            attributes_per_relation=3,
            value_domain=3,
            join_arity=3,
            seed=606,
            window=window,
        )
        config = RJoinConfig(
            num_nodes=16, seed=6, tuple_gc_window=window, gc_every_tuples=10
        )
        engine, reference, handles = run_side_by_side(
            spec, num_queries=6, num_tuples=60, config=config
        )
        summary = engine.metrics_summary()
        assert summary["current_storage"] < summary["total_storage"]
        for handle in handles:
            assert as_bag(handle.values()) == as_bag(reference.answers(handle.query_id))


class TestGcHorizon:
    """``tuple_gc_window`` collects stored tuples older than itself, so
    ``submit`` accepts only the queries it covers: a window of its mode and
    at most its size.  Any other query would lose answers without a word."""

    HORIZON = WindowSpec(size=20, mode="tuples")
    JOIN = "SELECT R.a, S.d FROM R, S WHERE R.b = S.c"

    def engine(self) -> RJoinEngine:
        engine = RJoinEngine(
            RJoinConfig(num_nodes=16, seed=7, tuple_gc_window=self.HORIZON)
        )
        engine.register_relation("R", ["a", "b"])
        engine.register_relation("S", ["c", "d"])
        return engine

    @pytest.mark.parametrize(
        "window",
        [None, WindowSpec(size=100, mode="tuples"), WindowSpec(size=20, mode="time")],
        ids=["no-window", "larger", "other-mode"],
    )
    def test_uncovered_query_is_refused(self, window):
        engine = self.engine()
        query = self.JOIN if window is None else f"{self.JOIN} {window}"
        with pytest.raises(EngineError, match="tuple_gc_window"):
            engine.submit(query)
        assert not engine.handles
        assert engine.metrics_summary()["submitted_queries"] == 0.0

    @pytest.mark.parametrize("size", [20, 8])
    def test_covered_query_keeps_every_answer(self, size):
        engine = self.engine()
        reference = ReferenceEngine(engine.catalog)
        handle = engine.submit(f"{self.JOIN} WINDOW {size} TUPLES")
        reference.submit(
            handle.query,
            query_id=handle.query_id,
            insertion_time=handle.insertion_time,
        )
        rng = random.Random(7)
        for _ in range(300):
            relation = rng.choice("RS")
            values = (rng.randrange(10), rng.randrange(10))
            reference.publish_tuple(engine.publish(relation, values))
        assert engine.metrics_summary()["current_storage"] < 300
        assert handle.count > 0
        assert as_bag(handle.values()) == as_bag(reference.answers(handle.query_id))


class TestDistinctEquivalence:
    def test_distinct_set_semantics(self):
        spec = WorkloadSpec(
            num_relations=4,
            attributes_per_relation=3,
            value_domain=3,
            join_arity=3,
            seed=707,
            distinct=True,
        )
        engine, reference, handles = run_side_by_side(
            spec, num_queries=6, num_tuples=40, config=RJoinConfig(num_nodes=16, seed=7)
        )
        produced = 0
        for handle in handles:
            expected = set(map(tuple, reference.answers(handle.query_id)))
            assert handle.distinct_values() == expected
            produced += len(expected)
        assert produced > 0

    def test_distinct_windowed_set_semantics(self):
        window = WindowSpec(size=10, mode="tuples")
        spec = WorkloadSpec(
            num_relations=4,
            attributes_per_relation=3,
            value_domain=3,
            join_arity=3,
            seed=808,
            distinct=True,
            window=window,
        )
        config = RJoinConfig(num_nodes=16, seed=8, tuple_gc_window=window)
        engine, reference, handles = run_side_by_side(
            spec, num_queries=6, num_tuples=40, config=config
        )
        for handle in handles:
            expected = set(map(tuple, reference.answers(handle.query_id)))
            assert handle.distinct_values() == expected


class TestDelaysAndAltt:
    def test_completeness_with_message_jitter(self):
        """Delayed deliveries must not lose answers thanks to the ALTT (Section 4)."""
        spec = WorkloadSpec(
            num_relations=4,
            attributes_per_relation=3,
            value_domain=4,
            join_arity=3,
            seed=909,
        )
        config = RJoinConfig(num_nodes=16, seed=9, delay_jitter=5.0)
        engine, reference, handles = run_side_by_side(
            spec, num_queries=8, num_tuples=40, config=config
        )
        for handle in handles:
            assert as_bag(handle.values()) == as_bag(reference.answers(handle.query_id))

    def test_interleaved_submission_and_publication(self):
        """Queries submitted while tuples flow still get exactly the right answers."""
        spec = WorkloadSpec(
            num_relations=4,
            attributes_per_relation=3,
            value_domain=3,
            join_arity=3,
            seed=111,
        )
        generator = WorkloadGenerator(spec)
        engine = RJoinEngine(RJoinConfig(num_nodes=16, seed=10))
        engine.register_catalog(generator.catalog)
        reference = ReferenceEngine(generator.catalog)
        handles = []
        queries = generator.generate_queries(6)
        tuples = generator.generate_tuples(48)
        for index, generated in enumerate(tuples):
            if index % 8 == 0 and queries:
                query = queries.pop()
                handle = engine.submit(query)
                reference.submit(
                    query,
                    query_id=handle.query_id,
                    insertion_time=handle.insertion_time,
                )
                handles.append(handle)
            tup = engine.publish(generated.relation, generated.values)
            reference.publish_tuple(tup)
        for handle in handles:
            assert as_bag(handle.values()) == as_bag(reference.answers(handle.query_id))

    @pytest.mark.hard_timeout(60)
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("runtime", ["sim", "asyncio"])
    def test_a_tuple_that_races_past_its_query_still_triggers_it(self, runtime, seed):
        """Section 4's lookup, needed: a query and a tuple in flight together.

        The tuple can reach the attribute-level node before the input query
        does, and then only the ALTT still holds it when the query arrives.
        Without that lookup every seed here loses answers.
        """
        spec = WorkloadSpec(
            num_relations=3,
            attributes_per_relation=2,
            value_domain=3,
            join_arity=2,
            seed=seed,
        )
        generator = WorkloadGenerator(spec)
        engine = RJoinEngine(RJoinConfig(num_nodes=16, seed=seed, runtime=runtime))
        try:
            engine.register_catalog(generator.catalog)
            reference = ReferenceEngine(generator.catalog)
            queries = generator.generate_queries(6)
            handles = []
            for index, generated in enumerate(generator.generate_tuples(40)):
                if index % 5 == 0 and queries:
                    query = queries.pop()
                    # Left in flight: the publish below drains both together.
                    handle = engine.submit(query, process=False)
                    reference.submit(
                        query,
                        query_id=handle.query_id,
                        insertion_time=handle.insertion_time,
                    )
                    handles.append(handle)
                (tup,) = engine.publish_batch([(generated.relation, generated.values)])
                reference.publish_tuple(tup)
            assert sum(handle.count for handle in handles) > 0
            for handle in handles:
                expected = reference.answers(handle.query_id)
                assert as_bag(handle.values()) == as_bag(expected)
        finally:
            engine.close()


class TestAnswerMetadata:
    def test_answers_carry_producer_and_times(self, small_catalog):
        engine = RJoinEngine(RJoinConfig(num_nodes=16, seed=11), catalog=small_catalog)
        handle = engine.submit("SELECT R.a, S.d FROM R, S WHERE R.b = S.c")
        engine.publish("R", (1, 10))
        engine.publish("S", (10, 2))
        answer = handle.latest()
        assert answer is not None
        assert answer.query_id == handle.query_id
        assert answer.producer in engine.nodes
        assert answer.delivered_at >= answer.produced_at >= handle.insertion_time
