"""Cross-runtime equivalence: the ``asyncio`` actor runtime vs the oracle.

The concurrent runtime trades delivery-order determinism for real
concurrency; RJoin's answer bags are provably order-independent (paper
Theorems 1–2, with ``allow_attribute_level_rewrites=False``), so the same
workload must produce the *same bag of answers* on the ``asyncio`` runtime
as on the deterministic ``sim`` runtime and as the centralised oracle —
across every indexing strategy, every store backend, and under membership
churn including owner failover.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.core.config import RJoinConfig
from repro.core.engine import RJoinEngine
from repro.core.reference import ReferenceEngine
from repro.data.backends import BACKEND_NAMES
from repro.errors import EngineError, SimulationError
from repro.workload.generator import WorkloadGenerator, WorkloadSpec
from tests.traffic import PostedTraffic

pytestmark = pytest.mark.hard_timeout(300)

STRATEGIES = ("rjoin", "random", "worst", "first")


def run_concurrent(
    spec: WorkloadSpec,
    num_queries: int,
    num_tuples: int,
    config: RJoinConfig,
):
    """Run the same workload through the asyncio engine and the oracle."""
    assert config.runtime == "asyncio"
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


def assert_bags_match(handles, reference) -> None:
    produced = 0
    for handle in handles:
        expected = as_bag(reference.answers(handle.query_id))
        assert as_bag(handle.values()) == expected
        produced += len(expected)
    assert produced > 0, "workload produced no answers"


class TestStrategyBackendMatrix:
    """4 strategies × 2 backends, each run concurrently, each oracle-exact."""

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_answer_bags_match_oracle(self, strategy, backend):
        spec = WorkloadSpec(
            num_relations=4,
            attributes_per_relation=3,
            value_domain=4,
            join_arity=3,
            seed=1201,
        )
        config = RJoinConfig(
            num_nodes=16,
            seed=12,
            runtime="asyncio",
            strategy=strategy,
            store_backend=backend,
        )
        engine, reference, handles = run_concurrent(
            spec, num_queries=6, num_tuples=30, config=config
        )
        try:
            assert_bags_match(handles, reference)
        finally:
            engine.close()


class TestBackpressureEscapes:
    def test_an_answer_flood_never_force_enqueues(self):
        """Engine traffic is not cyclic, so the bounded inboxes never need
        the escape hatch, even when nearly every tuple makes answers."""
        spec = WorkloadSpec(
            num_relations=3,
            attributes_per_relation=2,
            value_domain=2,
            join_arity=2,
            seed=1301,
        )
        config = RJoinConfig(num_nodes=16, seed=13, runtime="asyncio")
        engine, reference, handles = run_concurrent(
            spec, num_queries=6, num_tuples=60, config=config
        )
        try:
            assert_bags_match(handles, reference)
            assert engine.total_answers > 500
            assert engine.transport.backpressure_escapes == 0
            assert engine.metrics_summary()["backpressure_escapes"] == 0.0
        finally:
            engine.close()


class TestSimAsyncioEquivalence:
    """The two runtimes, fed the identical workload, agree bag-for-bag."""

    def run_on(self, runtime: str, queries, tuples, **overrides):
        config = RJoinConfig(num_nodes=16, seed=13, runtime=runtime, **overrides)
        engine = RJoinEngine(config)
        engine.register_catalog(self.generator.catalog)
        handles = [engine.submit(query) for query in queries]
        for generated in tuples:
            engine.publish(generated.relation, generated.values)
        return engine, handles

    def test_same_workload_same_bags(self):
        spec = WorkloadSpec(
            num_relations=4,
            attributes_per_relation=3,
            value_domain=3,
            join_arity=3,
            seed=1301,
        )
        self.generator = WorkloadGenerator(spec)
        queries = self.generator.generate_queries(6)
        tuples = self.generator.generate_tuples(30)
        sim_engine, sim_handles = self.run_on("sim", queries, tuples)
        conc_engine, conc_handles = self.run_on("asyncio", queries, tuples)
        try:
            for sim_handle, conc_handle in zip(sim_handles, conc_handles):
                assert as_bag(sim_handle.values()) == as_bag(conc_handle.values())
            assert sum(h.count for h in sim_handles) > 0
        finally:
            sim_engine.close()
            conc_engine.close()

    def test_a_ric_heavy_cell_costs_the_same_on_both_runtimes(self):
        """A wide value domain: nearly every rewrite meets candidate keys its
        node has no rate for, so RIC requests — routed while the tables are
        cold, one hop on a cached arc after, like the tuples and the queries
        — are a large part of the traffic.
        The runtimes agree exactly on the bag and on every *decision*: the
        answers, the chains started, the questions joined and spared.  On the
        *transmissions* they agree within 1 %: ``asyncio`` handles the
        deliveries of one instant in either order, so a message posted the
        instant an arc notice arrives goes routed on one runtime and direct
        on the other (here 12,193 vs 12,190 messages, 5,839 vs 5,840 direct;
        0 … 23 of ≈ 10,000 on four other seeds, on this tree and on its
        parent alike — seed 13 used to land on equal counts by chance)."""
        spec = WorkloadSpec(
            num_relations=4,
            attributes_per_relation=3,
            value_domain=60,
            join_arity=3,
            seed=1501,
        )
        self.generator = WorkloadGenerator(spec)
        queries = self.generator.generate_queries(48)
        tuples = self.generator.generate_tuples(120)
        sim_engine, sim_handles = self.run_on("sim", queries, tuples, strategy="rjoin")
        conc_engine, conc_handles = self.run_on(
            "asyncio", queries, tuples, strategy="rjoin"
        )
        try:
            for sim_handle, conc_handle in zip(sim_handles, conc_handles):
                assert as_bag(sim_handle.values()) == as_bag(conc_handle.values())
            sim, conc = sim_engine.metrics_summary(), conc_engine.metrics_summary()
            for counter in (
                "answers", "ric_chains_started", "ric_questions_joined",
                "ric_questions_spared", "arc_sends_misdirected",
            ):
                assert sim[counter] == conc[counter], counter
            for counter in ("total_messages", "ric_messages", "arc_sends_direct"):
                assert abs(sim[counter] - conc[counter]) <= 0.01 * sim[counter], counter
            assert sim["answers"] > 0 and sim["arc_sends_misdirected"] == 0
            # RIC-heavy, and the arcs at work: a twelfth of the traffic is RIC
            # (1,188 of 12,193; 1,779 of 12,692 while a lone candidate still
            # asked), and more messages went direct than chains were started.
            assert sim["ric_messages"] > 0.08 * sim["total_messages"]
            assert sim["arc_sends_direct"] > sim["ric_chains_started"] > 0
        finally:
            sim_engine.close()
            conc_engine.close()

    def test_scheduled_churn_same_bags_and_counters(self):
        # Same scheduled join + graceful leave on both runtimes: same seed
        # picks the same ring positions and victims, graceful hand-offs lose
        # nothing, so bags AND churn counters must agree exactly.  On each,
        # every posted envelope is charged and every charge posted.
        spec = WorkloadSpec(
            num_relations=4,
            attributes_per_relation=3,
            value_domain=3,
            join_arity=3,
            seed=1401,
        )
        self.generator = WorkloadGenerator(spec)
        queries = self.generator.generate_queries(6)
        tuples = self.generator.generate_tuples(40)
        engines = {}
        for runtime in ("sim", "asyncio"):
            config = RJoinConfig(num_nodes=16, seed=14, runtime=runtime)
            engine = RJoinEngine(config)
            posted = PostedTraffic(engine.transport)
            engine.register_catalog(self.generator.catalog)
            handles = [engine.submit(query) for query in queries]
            engine.schedule_membership_op("join", delay=0.5)
            engine.schedule_membership_op("leave", delay=1.5)
            for generated in tuples:
                engine.publish(generated.relation, generated.values)
            posted.assert_conserved(engine.traffic)
            engines[runtime] = (engine, handles)
        sim_engine, sim_handles = engines["sim"]
        conc_engine, conc_handles = engines["asyncio"]
        try:
            assert sim_engine.churn.joins == conc_engine.churn.joins == 1
            assert sim_engine.churn.leaves == conc_engine.churn.leaves == 1
            assert len(sim_engine.nodes) == len(conc_engine.nodes)
            for sim_handle, conc_handle in zip(sim_handles, conc_handles):
                assert as_bag(sim_handle.values()) == as_bag(conc_handle.values())
        finally:
            sim_engine.close()
            conc_engine.close()


class TestConcurrentFailover:
    def test_owner_crash_loses_no_post_crash_answers(self):
        # The single-identifier-arc construction from the lifecycle suite:
        # the victim owns queries but no key-range state, so crashing it
        # exercises owner failover without state loss the oracle cannot
        # model — post-crash bags must stay oracle-exact on asyncio too.
        spec = WorkloadSpec(
            num_relations=4,
            attributes_per_relation=3,
            value_domain=3,
            join_arity=3,
            seed=1501,
        )
        generator = WorkloadGenerator(spec)
        engine = RJoinEngine(
            RJoinConfig(num_nodes=24, seed=15, runtime="asyncio")
        )
        engine.register_catalog(generator.catalog)
        reference = ReferenceEngine(generator.catalog)
        anchor = engine.ring.nodes[0]
        victim = engine.add_node(
            node_id=(anchor.node_id + 1) % (2 ** engine.space.bits)
        )
        handles = []
        for query in generator.generate_queries(6):
            handle = engine.submit(query, owner=victim)
            reference.submit(
                query,
                query_id=handle.query_id,
                insertion_time=handle.insertion_time,
            )
            handles.append(handle)
        for generated in generator.generate_tuples(20):
            tup = engine.publish(generated.relation, generated.values)
            reference.publish_tuple(tup)
        owned = engine.lifecycle.queries_owned_by(victim)
        assert owned
        engine.crash_node(victim)
        assert engine.churn.failover_reregistrations >= len(owned)
        for generated in generator.generate_tuples(30):
            tup = engine.publish(generated.relation, generated.values)
            reference.publish_tuple(tup)
        try:
            assert_bags_match(handles, reference)
        finally:
            engine.close()


class TestEngineRuntimeSurface:
    def test_runtime_property_reports_the_transport(self, small_catalog):
        with RJoinEngine(
            RJoinConfig(num_nodes=8, seed=1, runtime="asyncio"),
            catalog=small_catalog,
        ) as engine:
            assert engine.runtime == "asyncio"
        engine = RJoinEngine(RJoinConfig(num_nodes=8, seed=1), catalog=small_catalog)
        assert engine.runtime == "sim"
        engine.close()

    def test_kernel_access_raises_off_sim(self, small_catalog):
        with RJoinEngine(
            RJoinConfig(num_nodes=8, seed=1, runtime="asyncio"),
            catalog=small_catalog,
        ) as engine:
            with pytest.raises(EngineError, match="no simulation kernel"):
                engine.kernel
        engine = RJoinEngine(RJoinConfig(num_nodes=8, seed=1), catalog=small_catalog)
        assert engine.kernel is engine.transport
        engine.close()

    def test_close_is_idempotent_and_final(self, small_catalog):
        engine = RJoinEngine(
            RJoinConfig(num_nodes=8, seed=2, runtime="asyncio"),
            catalog=small_catalog,
        )
        engine.submit("SELECT R.a, S.d FROM R, S WHERE R.b = S.c")
        engine.publish("R", (1, 10))
        engine.publish("S", (10, 2))
        engine.close()
        engine.close()
        with pytest.raises(SimulationError, match="shut down"):
            engine.publish("R", (2, 20))

    def test_unknown_runtime_is_rejected_at_config_time(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="unknown runtime"):
            RJoinConfig(num_nodes=8, runtime="threads")
