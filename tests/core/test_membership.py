"""Dynamic ring membership: join / graceful leave / crash / id movement.

The re-homing invariants checked here are the contract of
:class:`repro.core.membership.MembershipManager`: after *any* sequence of
membership events,

* every stored tuple, ALTT entry, input query and rewritten query lives on
  exactly the node that ``owner_of_key`` names for its key,
* state totals are conserved under graceful changes (join, leave, id
  movement) and accounted as lost under crashes,
* answer sets under graceful churn match the centralised reference engine.
"""

import pytest

from repro.core.config import RJoinConfig
from repro.core.engine import RJoinEngine
from repro.core.membership import estimate_item_bytes
from repro.core.node import RehomedItem
from repro.core.reference import ReferenceEngine
from repro.errors import DuplicateNodeError, EngineError
from repro.workload.generator import WorkloadGenerator, WorkloadSpec
from tests.metrics.test_load_accounting import walk_current_storage

STRATEGIES = ("rjoin", "random", "worst", "first")


def build(seed=5, queries=6, tuples=30, **overrides):
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
    for query in generator.generate_queries(queries):
        engine.submit(query)
    for generated in generator.generate_tuples(tuples):
        engine.publish(generated.relation, generated.values)
    return generator, engine


def assert_ownership(engine):
    """Every item of every state kind lives on the node owning its key."""
    for node in engine.nodes.values():
        for key_text in list(node.input_queries) + list(node.rewritten_queries):
            assert engine.ring.owner_of_key(key_text).address == node.address
        for key_text in node.tuple_store.keys():
            assert engine.ring.owner_of_key(key_text).address == node.address
        for key_text in node.altt.keys():
            assert engine.ring.owner_of_key(key_text).address == node.address


def total_items(engine):
    """Items of all four state kinds currently held across the network."""
    return sum(
        len(node.input_queries)
        + len(node.rewritten_queries)
        + len(node.tuple_store)
        + len(node.altt)
        for node in engine.nodes.values()
    )


class TestJoin:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_join_rehomes_state_and_conserves_totals(self, strategy):
        _, engine = build(strategy=strategy)
        before = total_items(engine)
        ring_before = len(engine.ring)
        for _ in range(4):
            engine.add_node()
        assert len(engine.ring) == ring_before + 4
        assert_ownership(engine)
        assert total_items(engine) == before
        assert engine.churn.joins == 4
        assert engine.churn.records_lost == 0

    def test_join_registers_working_node(self):
        generator, engine = build()
        address = engine.add_node()
        assert engine.ring.has_address(address)
        assert address in engine.nodes
        # The new node participates: publishing through it works.
        generated = next(iter(generator.generate_tuples(1)))
        engine.publish(generated.relation, generated.values, publisher=address)
        assert_ownership(engine)

    def test_join_duplicate_address_rejected(self):
        _, engine = build(queries=0, tuples=0)
        with pytest.raises(DuplicateNodeError):
            engine.add_node("node-0")

    def test_join_with_explicit_identifier(self):
        _, engine = build(queries=2, tuples=10)
        target_id = engine.ring.random_free_identifier(__import__("random").Random(99))
        address = engine.add_node("newcomer", node_id=target_id)
        assert engine.ring.node_by_address(address).node_id == target_id
        assert_ownership(engine)


class TestGracefulLeave:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_leave_hands_off_all_state(self, strategy):
        _, engine = build(strategy=strategy)
        before = total_items(engine)
        victim = max(
            engine.nodes.values(),
            key=lambda node: node.current_storage_items + len(node.input_queries),
        )
        departed = engine.remove_node(victim.address)
        assert departed == victim.address
        assert not engine.ring.has_address(victim.address)
        assert victim.address not in engine.nodes
        assert_ownership(engine)
        assert total_items(engine) == before
        assert engine.churn.leaves == 1
        assert engine.churn.records_lost == 0

    def test_leave_keeps_load_tracker_consistent(self):
        _, engine = build()
        engine.remove_node()
        live = sum(walk_current_storage(engine).values())
        assert engine.metrics_summary()["current_storage"] == live

    def test_cannot_remove_last_node(self):
        engine = RJoinEngine(RJoinConfig(num_nodes=1, seed=1))
        with pytest.raises(EngineError):
            engine.remove_node()

    def test_remove_unknown_node_raises(self):
        _, engine = build(queries=0, tuples=0)
        with pytest.raises(EngineError):
            engine.remove_node("no-such-node")


class TestCrash:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_crash_loses_state_and_accounts_it(self, strategy):
        _, engine = build(strategy=strategy)
        before = total_items(engine)
        engine.crash_node()
        assert_ownership(engine)
        assert engine.churn.crashes == 1
        assert total_items(engine) == before - engine.churn.records_lost

    def test_crash_keeps_load_tracker_consistent(self):
        _, engine = build()
        engine.crash_node()
        live = sum(walk_current_storage(engine).values())
        assert engine.metrics_summary()["current_storage"] == live

    def test_crash_drops_in_flight_messages(self):
        generator, engine = build(queries=4, tuples=10)
        # Put messages in flight (no drain), then crash the owner of one of
        # the indexing keys before delivery.
        generated = next(iter(generator.generate_tuples(1)))
        tup = engine.publish(generated.relation, generated.values, process=False)
        from repro.core.keys import tuple_index_keys

        schema = engine.catalog.get(tup.relation)
        victim = None
        for key in tuple_index_keys(tup, schema):
            owner = engine.ring.owner_of_key(key.text).address
            if owner != tup.publisher:
                victim = owner
                break
        assert victim is not None
        dropped_before = engine.api.dropped_messages
        engine.crash_node(victim)
        assert engine.api.dropped_messages > dropped_before
        engine.run()
        assert_ownership(engine)

    def test_answers_to_crashed_owner_are_dropped_not_fatal(self):
        """send_direct to a departed address must not blow up the simulation."""
        _, engine = build(queries=6, tuples=10)
        owner = next(iter(engine.handles.values())).owner
        engine.crash_node(owner)
        # Keep publishing: any answer routed to the dead owner is dropped.
        spec = WorkloadSpec(
            num_relations=4,
            attributes_per_relation=3,
            value_domain=4,
            join_arity=3,
            seed=5,
        )
        generator = WorkloadGenerator(spec)
        for generated in generator.generate_tuples(20):
            engine.publish(generated.relation, generated.values)
        assert_ownership(engine)


class TestIdMovementPath:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_rebalance_rehomes_every_state_kind(self, strategy):
        _, engine = build(
            strategy=strategy, id_movement=True, rebalance_every_tuples=10_000
        )
        before = total_items(engine)
        engine.rebalance()
        assert_ownership(engine)
        assert total_items(engine) == before
        assert engine.churn.records_lost == 0


class TestMixedSequences:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_interleaved_events_keep_invariants(self, strategy):
        generator, engine = build(
            strategy=strategy, id_movement=True, rebalance_every_tuples=10_000
        )
        before = total_items(engine)
        engine.add_node()
        engine.rebalance()
        engine.remove_node()
        engine.add_node()
        engine.remove_node()
        assert_ownership(engine)
        assert total_items(engine) == before
        # keep running after churn: the network still works end to end
        for generated in generator.generate_tuples(15):
            engine.publish(generated.relation, generated.values)
        assert_ownership(engine)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_answers_under_graceful_churn_match_reference(self, strategy):
        spec = WorkloadSpec(
            num_relations=4,
            attributes_per_relation=3,
            value_domain=3,
            join_arity=3,
            seed=21,
        )
        generator = WorkloadGenerator(spec)
        engine = RJoinEngine(RJoinConfig(num_nodes=16, seed=21, strategy=strategy))
        engine.register_catalog(generator.catalog)
        reference = ReferenceEngine(generator.catalog)
        handles = []
        for query in generator.generate_queries(6):
            handle = engine.submit(query)
            reference.submit(
                query, query_id=handle.query_id, insertion_time=handle.insertion_time
            )
            handles.append(handle)
        owners = {handle.owner for handle in handles}
        for index, generated in enumerate(generator.generate_tuples(50), start=1):
            tup = engine.publish(generated.relation, generated.values)
            reference.publish_tuple(tup)
            if index % 10 == 0:
                engine.add_node()
            elif index % 10 == 5:
                # graceful departures only, and never a query owner: answers
                # in flight towards a departed owner would be legitimately
                # dropped, which is not what this test is about.
                candidates = [
                    address for address in engine.ring.addresses
                    if address not in owners
                ]
                engine.remove_node(engine._churn_rng.choice(candidates))
        assert_ownership(engine)
        for handle in handles:
            got = sorted(repr(v) for v in handle.values())
            expected = sorted(repr(v) for v in reference.answers(handle.query_id))
            assert got == expected


class TestScheduledOps:
    def test_scheduled_ops_fire_during_drain(self):
        generator, engine = build(queries=4, tuples=10)
        ring_before = len(engine.ring)
        engine.schedule_membership_op("join", delay=0.5)
        engine.schedule_membership_op("leave", delay=0.7)
        engine.schedule_membership_op("crash", delay=0.9)
        for generated in generator.generate_tuples(5):
            engine.publish(generated.relation, generated.values)
        assert engine.churn.membership_events == 3
        assert len(engine.ring) == ring_before - 1  # +1 join, -1 leave, -1 crash
        assert_ownership(engine)

    def test_min_nodes_bound_turns_events_into_noops(self):
        _, engine = build(queries=0, tuples=0, num_nodes=3)
        engine.schedule_membership_op("leave", delay=0.1, min_nodes=3)
        engine.schedule_membership_op("crash", delay=0.2, min_nodes=3)
        engine.run()
        assert engine.churn.membership_events == 0
        assert len(engine.ring) == 3

    def test_scheduled_joins_are_unbounded(self):
        _, engine = build(queries=0, tuples=0, num_nodes=4)
        for delay in (0.1, 0.2, 0.3):
            engine.schedule_membership_op("join", delay=delay)
        engine.run()
        assert len(engine.ring) == 7
        assert engine.churn.joins == 3

    def test_the_kind_says_whether_a_departure_hands_off(self):
        _, engine = build(queries=4, tuples=20, num_nodes=8)
        engine.schedule_membership_op("leave", delay=0.1)
        engine.run()
        assert (engine.churn.leaves, engine.churn.crashes) == (1, 0)
        assert engine.churn.records_lost == 0
        engine.schedule_membership_op("crash", delay=0.1)
        engine.run()
        assert (engine.churn.leaves, engine.churn.crashes) == (1, 1)

    def test_a_scheduled_leave_of_a_named_node_hands_its_state_off(self):
        _, engine = build(queries=4, tuples=20, num_nodes=8)
        victim = max(
            engine.nodes, key=lambda a: engine.nodes[a].current_storage_items
        )
        held = engine.metrics_summary()["current_storage"]
        engine.schedule_membership_op("leave", delay=0.1, address=victim)
        engine.run()
        assert not engine.ring.has_address(victim)
        assert engine.churn.records_rehomed > 0
        assert engine.metrics_summary()["current_storage"] == held
        assert_ownership(engine)

    def test_unknown_op_kind_rejected(self):
        _, engine = build(queries=0, tuples=0)
        with pytest.raises(EngineError):
            engine.schedule_membership_op("explode")


class TestManagerAndItems:
    def test_accept_rehomed_unknown_kind_raises_engine_error(self):
        """Regression: used to be a bare ValueError (error-hygiene, PR 2)."""
        _, engine = build(queries=0, tuples=0)
        node = next(iter(engine.nodes.values()))
        item = RehomedItem(kind="hologram", key_text="some-key", payload=object())
        with pytest.raises(EngineError, match="hologram"):
            node.accept_rehomed([item])
        with pytest.raises(EngineError, match="input"):
            node.accept_rehomed([item])  # message names the valid kinds

    def test_handoff_refuses_live_node(self):
        _, engine = build(queries=0, tuples=0)
        node = next(iter(engine.nodes.values()))
        with pytest.raises(EngineError):
            engine.membership.handoff(node)

    def test_altt_entries_keep_reception_time_across_rehoming(self):
        """A re-homed ALTT entry must keep its remaining Δ budget."""
        _, engine = build(queries=4, tuples=20)
        by_size = sorted(engine.nodes.values(), key=lambda node: len(node.altt))
        heir, donor = by_size[0], by_size[-1]
        assert len(donor.altt) > 0

        def received(node, keys):
            return {
                (record.key, record.identity): record.stored_at
                for record in node.altt
                if record.key in keys
            }

        keys = set(donor.altt.keys())
        before = received(donor, keys)
        # Reception time, not publication time: routing took hops.
        assert any(record.stored_at > record.tuple.pub_time for record in donor.altt)
        items = [item for item in donor.extract_all() if item.kind == "altt"]
        heir.accept_rehomed(items)
        assert len(donor.altt) == 0
        assert received(heir, keys) == before

    def test_estimate_item_bytes_positive_for_every_kind(self):
        _, engine = build(queries=6, tuples=20)
        items = []
        for node in engine.nodes.values():
            items.extend(node.extract_all())
        kinds = {item.kind for item in items}
        assert {"rewritten", "tuple"} <= kinds
        for item in items:
            assert estimate_item_bytes(item) > 0
