"""Query lifecycle subsystem: continuous-query removal and owner failover.

The invariants checked here are the contract of
:class:`repro.core.lifecycle.QueryLifecycleManager`:

* ``remove_query`` leaves zero orphaned records on any node — no stored
  input-query record, rewritten query, pending RIC round trip or handle
  registration of the removed query survives anywhere, across all four
  indexing strategies and both store backends,
* after removing *all* queries the network is fully vacuumed: every node's
  tuple store, ALTT, query tables and candidate table are empty,
* removal is mirrored by :class:`~repro.core.reference.ReferenceEngine`, so
  oracle equality holds across removals and re-submissions,
* owner failover re-registers a departed owner's queries on its ring
  successor (which already holds the replicated
  :class:`~repro.core.lifecycle.HandleRegistration`), re-routes in-flight
  answers and loses no post-crash answers; membership changes re-home
  registrations like any other state kind.
"""

import pytest

from repro.core.config import RJoinConfig
from repro.core.engine import RJoinEngine
from repro.core.reference import ReferenceEngine
from repro.data.backends import BACKEND_NAMES
from repro.errors import EngineError
from repro.workload.generator import WorkloadGenerator, WorkloadSpec

STRATEGIES = ("rjoin", "random", "worst", "first")


def build(seed=5, queries=6, tuples=30, mirror=False, **overrides):
    spec = WorkloadSpec(
        num_relations=4,
        attributes_per_relation=3,
        value_domain=4,
        join_arity=3,
        seed=seed,
    )
    generator = WorkloadGenerator(spec)
    params = dict(num_nodes=16, seed=seed)
    params.update(overrides)
    engine = RJoinEngine(RJoinConfig(**params))
    engine.register_catalog(generator.catalog)
    reference = ReferenceEngine(generator.catalog) if mirror else None
    handles = []
    for query in generator.generate_queries(queries):
        handle = engine.submit(query)
        handles.append(handle)
        if reference is not None:
            reference.submit(
                query,
                query_id=handle.query_id,
                insertion_time=handle.insertion_time,
            )
    for generated in generator.generate_tuples(tuples):
        tup = engine.publish(generated.relation, generated.values)
        if reference is not None:
            reference.publish_tuple(tup)
    return generator, engine, reference, handles


def records_for_query(engine, query_id):
    """Every record of ``query_id`` still present anywhere in the network."""
    found = []
    for node in engine.nodes.values():
        for table in (node.input_queries, node.rewritten_queries):
            for _, records in table.items():
                for record in records:
                    if record.state.query_id == query_id:
                        found.append(record)
        for op in node._pending_ric.values():
            if op.state.query_id == query_id:
                found.append(op)
        if query_id in node.registrations:
            found.append(node.registrations[query_id])
    return found


def assert_answer_bags_match(engine_handles, reference):
    for handle in engine_handles:
        got = sorted(repr(v) for v in handle.values())
        expected = sorted(repr(v) for v in reference.answers(handle.query_id))
        assert got == expected, handle.query_id


def assert_registration_invariant(engine):
    """Every active query's registration lives on its owner's successor."""
    placed = {}
    for node in engine.nodes.values():
        for query_id, registration in node.registrations.items():
            assert query_id not in placed, f"{query_id} replicated twice"
            placed[query_id] = (node.address, registration)
    for query_id, handle in engine.handles.items():
        home = engine.lifecycle.registration_home(query_id)
        if home is None:
            continue
        assert query_id in placed, query_id
        address, registration = placed[query_id]
        assert address == home
        assert registration.owner == handle.owner


class TestRemoveQuery:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_remove_leaves_zero_orphans(self, strategy, backend):
        _, engine, _, handles = build(strategy=strategy, store_backend=backend)
        victim = handles[0]
        assert records_for_query(engine, victim.query_id)
        engine.remove_query(victim.query_id)
        assert records_for_query(engine, victim.query_id) == []
        assert victim.query_id not in engine.handles
        assert engine.churn.queries_removed == 1
        assert engine.churn.orphaned_state_records == 0

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_remove_all_queries_vacuums_every_node(self, strategy, backend):
        _, engine, _, handles = build(strategy=strategy, store_backend=backend)
        for handle in handles:
            engine.remove_query(handle.query_id)
        for node in engine.nodes.values():
            assert len(node.input_queries) == 0
            assert len(node.rewritten_queries) == 0
            assert len(node.tuple_store) == 0
            assert len(node.altt) == 0
            assert len(node.candidate_table) == 0
            assert not node._pending_ric
            assert not node.registrations
        summary = engine.metrics_summary()
        assert summary["queries_removed"] == len(handles)
        assert summary["active_queries"] == 0
        assert summary["orphaned_state_records"] == 0
        assert summary["records_vacuumed"] > 0
        # current-storage accounting matches the (empty) live state
        assert engine.loads.total_current_storage == 0

    def test_remove_keeps_delivered_answers(self):
        _, engine, _, handles = build(queries=8, tuples=40)
        total_before = engine.total_answers
        victim = max(handles, key=lambda handle: handle.count)
        answers_before = victim.count
        engine.remove_query(victim.query_id)
        assert victim.count == answers_before  # handle history untouched
        assert engine.total_answers == total_before
        assert engine.metrics_summary()["answers"] == total_before

    def test_remove_unknown_query_raises(self):
        _, engine, _, _ = build(queries=1, tuples=0)
        with pytest.raises(EngineError):
            engine.remove_query("no-such-query")

    def test_double_remove_raises(self):
        _, engine, _, handles = build(queries=2, tuples=5)
        engine.remove_query(handles[0].query_id)
        with pytest.raises(EngineError):
            engine.remove_query(handles[0].query_id)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_removal_mirrored_in_reference(self, strategy):
        generator, engine, reference, handles = build(
            strategy=strategy, mirror=True, queries=6, tuples=25
        )
        removed = handles[1]
        engine.remove_query(removed.query_id)
        reference.remove_query(removed.query_id)
        # keep publishing: the removed query gains nothing, survivors stay
        # in lockstep with the oracle
        for generated in generator.generate_tuples(25):
            tup = engine.publish(generated.relation, generated.values)
            reference.publish_tuple(tup)
        assert_answer_bags_match(handles, reference)
        assert records_for_query(engine, removed.query_id) == []
        assert engine.churn.orphaned_state_records == 0

    def test_remove_then_resubmit_matches_fresh_submit(self):
        """A removed-and-resubmitted query answers exactly like a fresh one."""
        generator, engine, reference, handles = build(
            mirror=True, queries=4, tuples=20
        )
        victim = handles[0]
        engine.remove_query(victim.query_id)
        reference.remove_query(victim.query_id)
        fresh = engine.submit(victim.query)
        reference.submit(
            victim.query,
            query_id=fresh.query_id,
            insertion_time=fresh.insertion_time,
        )
        handles[0] = fresh
        for generated in generator.generate_tuples(25):
            tup = engine.publish(generated.relation, generated.values)
            reference.publish_tuple(tup)
        assert_answer_bags_match(handles, reference)

    def test_no_resurrection_after_continued_publishing(self):
        generator, engine, _, handles = build(queries=6, tuples=20)
        victim = handles[0]
        engine.remove_query(victim.query_id)
        for generated in generator.generate_tuples(30):
            engine.publish(generated.relation, generated.values)
        assert records_for_query(engine, victim.query_id) == []
        assert engine.churn.orphaned_state_records == 0
        # retired handles received nothing new
        assert engine.metrics_summary()["queries_removed"] == 1

    def test_retraction_uses_real_messages(self):
        _, engine, _, handles = build(queries=3, tuples=10)
        messages_before = engine.traffic.total_messages
        engine.remove_query(handles[0].query_id)
        # one direct transmission per *other* live node (the origin's own
        # copy is a local delivery and costs nothing)
        assert (
            engine.traffic.total_messages - messages_before
            == len(engine.ring) - 1
        )


class TestOwnerFailover:
    def test_registrations_replicated_on_submit(self):
        _, engine, _, _ = build(queries=6, tuples=10)
        assert_registration_invariant(engine)

    def test_owner_crash_reregisters_on_successor(self):
        _, engine, _, handles = build(queries=6, tuples=15)
        victim_owner = handles[0].owner
        owned = engine.lifecycle.queries_owned_by(victim_owner)
        assert owned
        chord_node = engine.ring.node_by_address(victim_owner)
        successor = engine.ring.successor_of(chord_node).address
        engine.crash_node(victim_owner)
        for query_id in owned:
            assert engine.handles[query_id].owner == successor
        assert engine.churn.failover_reregistrations == len(owned)
        assert_registration_invariant(engine)

    def test_graceful_leave_reregisters_too(self):
        _, engine, _, handles = build(queries=6, tuples=15)
        victim_owner = handles[0].owner
        owned = engine.lifecycle.queries_owned_by(victim_owner)
        engine.remove_node(victim_owner, graceful=True)
        for query_id in owned:
            assert engine.handles[query_id].owner != victim_owner
        assert engine.churn.failover_reregistrations == len(owned)
        assert_registration_invariant(engine)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_owner_crash_loses_no_post_crash_answers(self, strategy):
        """After crashing an owner with empty local state, the surviving
        handles (including the failed-over ones) keep matching the oracle —
        the post-crash answer bag equals a never-crashed run's."""
        spec = WorkloadSpec(
            num_relations=4,
            attributes_per_relation=3,
            value_domain=3,
            join_arity=3,
            seed=31,
        )
        generator = WorkloadGenerator(spec)
        engine = RJoinEngine(
            RJoinConfig(num_nodes=24, seed=31, strategy=strategy)
        )
        engine.register_catalog(generator.catalog)
        reference = ReferenceEngine(generator.catalog)
        # Owner by construction without key-range state: a node whose arc is
        # a single identifier (predecessor's id + 1) owns essentially no
        # keys, so crashing it destroys only its ownership role — the state
        # loss the reference cannot model stays zero and the post-crash
        # answer bag must equal a never-crashed run's (= the oracle's).
        anchor = engine.ring.nodes[0]
        victim = engine.add_node(node_id=(anchor.node_id + 1) % (2**engine.space.bits))
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
        node = engine.nodes[victim]
        assert (
            len(node.input_queries)
            + len(node.rewritten_queries)
            + len(node.tuple_store)
            + len(node.altt)
            == 0
        ), "the single-identifier arc unexpectedly attracted state"
        owned = engine.lifecycle.queries_owned_by(victim)
        assert owned
        engine.crash_node(victim)
        assert engine.churn.failover_reregistrations >= len(owned)
        for generated in generator.generate_tuples(30):
            tup = engine.publish(generated.relation, generated.values)
            reference.publish_tuple(tup)
        assert_answer_bags_match(handles, reference)

    def test_in_flight_answers_reroute_to_survivor(self):
        from repro.core.protocol import AnswerMessage

        generator, engine, _, handles = build(queries=8, tuples=30)
        by_id = {handle.query_id: handle for handle in handles}
        # Step the kernel by hand until an answer is in flight towards a
        # (remote) owner, then crash that owner before the delivery fires.
        target = None
        for generated in generator.generate_tuples(60):
            engine.publish(generated.relation, generated.values, process=False)
            while engine.kernel.pending_events:
                pending = [
                    args[0]
                    for _, args in engine.kernel.pending()
                    if args
                    and hasattr(args[0], "message")
                    and isinstance(args[0].message, AnswerMessage)
                    and args[0].sender != args[0].destination
                    and args[0].destination in engine.nodes
                ]
                if pending:
                    target = pending[0]
                    break
                engine.kernel.step()
            if target is not None:
                break
        assert target is not None, "workload produced no in-flight answer"
        owner = target.destination
        handle = by_id[target.message.answers[0][0]]
        assert handle.owner == owner
        delivered_before = handle.count
        engine.crash_node(owner)
        assert engine.churn.answers_rerouted > 0
        engine.run()
        # the re-routed answer reached the failed-over handle, not the void
        assert handle.count > delivered_before
        assert handle.owner != owner
        summary = engine.metrics_summary()
        assert summary["answers_rerouted"] == engine.churn.answers_rerouted

    def test_failover_disabled_drops_answers(self):
        generator, engine, _, handles = build(
            queries=6, tuples=15, owner_failover=False
        )
        # no registrations are replicated at all
        assert all(not node.registrations for node in engine.nodes.values())
        victim = handles[0]
        owner_before = victim.owner
        count_before = victim.count
        dropped_before = engine.api.dropped_messages
        engine.crash_node(owner_before)
        assert victim.owner == owner_before  # nothing re-registered
        assert engine.churn.failover_reregistrations == 0
        for generated in generator.generate_tuples(25):
            engine.publish(generated.relation, generated.values)
        # answers produced for the orphaned handle were dropped, not delivered
        assert victim.count == count_before
        assert engine.api.dropped_messages >= dropped_before

    def test_remove_query_with_dead_owner_and_failover_disabled(self):
        _, engine, _, handles = build(queries=6, tuples=15, owner_failover=False)
        victim = handles[0]
        engine.crash_node(victim.owner)
        engine.remove_query(victim.query_id)  # a live node drives retraction
        assert records_for_query(engine, victim.query_id) == []


class TestRegistrationRehoming:
    def test_joins_keep_registration_invariant(self):
        _, engine, _, _ = build(queries=8, tuples=15)
        for _ in range(5):
            engine.add_node()
            assert_registration_invariant(engine)

    def test_replica_crash_repairs_registrations(self):
        _, engine, _, handles = build(queries=6, tuples=15)
        # crash a node that holds a replica but owns no query itself
        holder = next(
            node.address
            for node in engine.nodes.values()
            if node.registrations
            and not engine.lifecycle.queries_owned_by(node.address)
        )
        engine.crash_node(holder)
        assert_registration_invariant(engine)
        # the destroyed replicas were re-created out-of-band, and measured
        assert engine.metrics_summary()["replica_repairs"] > 0

    def test_replica_graceful_leave_rehomes_registrations(self):
        _, engine, _, _ = build(queries=6, tuples=15)
        holder = next(
            node.address
            for node in engine.nodes.values()
            if node.registrations
            and not engine.lifecycle.queries_owned_by(node.address)
        )
        engine.remove_node(holder, graceful=True)
        assert_registration_invariant(engine)

    def test_id_movement_keeps_registration_invariant(self):
        _, engine, _, _ = build(
            queries=8,
            tuples=15,
            id_movement=True,
            rebalance_every_tuples=10_000,
        )
        engine.rebalance()
        assert_registration_invariant(engine)

    def test_mixed_membership_sequence_keeps_invariant(self):
        generator, engine, _, _ = build(queries=8, tuples=20)
        engine.add_node()
        engine.remove_node()
        engine.crash_node()
        engine.add_node()
        assert_registration_invariant(engine)
        for generated in generator.generate_tuples(10):
            engine.publish(generated.relation, generated.values)
        assert_registration_invariant(engine)

    def test_watermark_synced_on_failover(self):
        _, engine, _, handles = build(queries=6, tuples=40)
        victim = max(handles, key=lambda handle: handle.count)
        if victim.count == 0:
            pytest.skip("workload produced no answers to watermark")
        owner = victim.owner
        engine.crash_node(owner)
        registration = next(
            node.registrations[victim.query_id]
            for node in engine.nodes.values()
            if victim.query_id in node.registrations
        )
        assert registration.watermark == victim.count
        assert registration.owner == victim.owner
