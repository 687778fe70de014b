"""The answer path: coalesced answer envelopes and per-record trigger plans.

One handler invocation sends one :class:`AnswerMessage` envelope per owner,
charged one message per answer it carries; the plans behind the triggers
that produce those answers live in the query shape every state carries,
shared across nodes and freed with the last state of the shape.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core import node as node_module
from repro.core.config import RJoinConfig
from repro.core.engine import RJoinEngine
from repro.core.keys import value_key
from repro.core.protocol import AnswerMessage
from repro.core.reference import ReferenceEngine
from repro.core.rewriting import rewrite_query
from repro.workload.generator import WorkloadGenerator, WorkloadSpec

SQL = "SELECT R.a, S.d FROM R, S WHERE R.b = S.c"
#: With the ``first`` strategy the input query waits at ``R.b`` and an ``R``
#: tuple sends its rewrite (``S.c = 10``) to where the ``S`` tuples with
#: ``c = 10`` are stored: the node this key hashes to produces the answers.
PRODUCER_KEY = value_key("S", "c", 10).text


def make_engine(**overrides):
    engine = RJoinEngine(
        RJoinConfig(num_nodes=16, seed=5, strategy="first", **overrides)
    )
    engine.register_relation("R", ["a", "b"])
    engine.register_relation("S", ["c", "d"])
    return engine


def producer_of(engine):
    return engine.ring.owner_of_key(PRODUCER_KEY).address


def another_node(engine, *taken):
    return next(address for address in engine.ring.addresses if address not in taken)


def record_posts(engine):
    """Every envelope handed to the transport from now on, in order."""
    posted = []
    post = engine.transport.post

    def recording_post(envelope, delay):
        posted.append(envelope)
        post(envelope, delay)

    engine.transport.post = recording_post
    return posted


def answer_envelopes(posted):
    return [env for env in posted if isinstance(env.message, AnswerMessage)]


def charged(posted):
    """Transmissions the posted envelopes were charged for."""
    return sum(envelope.hops * envelope.weight for envelope in posted)


def sends_of(posted, address, but=None):
    """Sends ``address`` was charged for its own envelopes, ``but`` one aside."""
    return sum(
        envelope.weight
        for envelope in posted
        if envelope.sender == address and envelope.hops and envelope is not but
    )


class TestCoalescing:
    def test_eval_matching_k_tuples_posts_one_envelope_charged_k(self):
        engine = make_engine()
        producer = producer_of(engine)
        owner = another_node(engine, producer)
        handle = engine.submit(SQL, owner=owner)
        k = 4
        for d in range(k):
            engine.publish("S", (10, d))
        posted = record_posts(engine)
        messages_before = engine.traffic.total_messages
        sent_before = engine.traffic.node(producer).sent
        answers_before = engine.loads.node(producer).answers_produced
        engine.publish("R", (1, 10))

        (envelope,) = answer_envelopes(posted)
        assert envelope.sender == producer and envelope.destination == owner
        assert envelope.hops == 1 and envelope.weight == k
        # One group of k values: the query travels once, not once per answer.
        ((query_id, values),) = envelope.message.answers
        assert query_id == handle.query_id and len(values) == k
        assert envelope.message.count == k
        # Traffic stays per logical answer: k sends for the one envelope.
        assert engine.traffic.total_messages - messages_before == charged(posted)
        sent = engine.traffic.node(producer).sent - sent_before
        assert sent - sends_of(posted, producer, but=envelope) == k
        assert engine.loads.node(producer).answers_produced - answers_before == k
        assert sorted(handle.values()) == [(1, d) for d in range(k)]
        assert {answer.delivered_at for answer in handle.answers} == {
            envelope.sent_at + engine.config.hop_delay
        }
        assert {answer.produced_at for answer in handle.answers} == {envelope.sent_at}
        engine.close()

    def test_two_queries_of_one_owner_share_one_envelope_one_group_each(self):
        engine = make_engine()
        producer = producer_of(engine)
        owner = another_node(engine, producer)
        first = engine.submit(SQL, owner=owner)
        second = engine.submit(SQL.replace("R.a, S.d", "S.d, R.a"), owner=owner)
        # Two rewrites of each query wait at S.c = 10, so the S tuple meets
        # all four in one handler at the producer.
        engine.publish("R", (1, 10))
        engine.publish("R", (2, 10))
        posted = record_posts(engine)
        engine.publish("S", (10, 5))

        (envelope,) = answer_envelopes(posted)
        assert envelope.sender == producer and envelope.destination == owner
        groups = dict(envelope.message.answers)
        assert len(envelope.message.answers) == 2
        assert envelope.weight == envelope.message.count == 4
        assert groups == {
            first.query_id: [(1, 5), (2, 5)],
            second.query_id: [(5, 1), (5, 2)],
        }
        # Each handle holds its group as produced.
        assert first.values() == groups[first.query_id]
        assert second.values() == groups[second.query_id]
        assert {answer.producer for answer in first.answers} == {producer}
        engine.close()

    def test_shared_state_with_two_owners_posts_two_envelopes(self):
        engine = make_engine()
        producer = producer_of(engine)
        first_owner = another_node(engine, producer)
        second_owner = another_node(engine, producer, first_owner)
        # Submitted at one instant, the two states are equal modulo query id
        # and share one stored record with two subscribers.
        first = engine.submit(SQL, owner=first_owner, process=False)
        second = engine.submit(SQL, owner=second_owner)
        for d in range(3):
            engine.publish("S", (10, d))
        posted = record_posts(engine)
        engine.publish("R", (1, 10))

        envelopes = answer_envelopes(posted)
        assert sorted(env.destination for env in envelopes) == sorted(
            [first_owner, second_owner]
        )
        assert all(env.weight == 3 and env.sender == producer for env in envelopes)
        assert engine.churn.shared_state_fanout > 0
        assert sorted(first.values()) == sorted(second.values()) == [
            (1, d) for d in range(3)
        ]
        engine.close()

    def test_self_owned_answer_is_delivered_without_traffic(self):
        engine = make_engine()
        producer = producer_of(engine)
        handle = engine.submit(SQL, owner=producer)
        engine.publish("S", (10, 7))
        engine.publish("S", (10, 8))
        posted = record_posts(engine)
        sent_before = engine.traffic.node(producer).sent
        messages_before = engine.traffic.total_messages
        engine.publish("R", (1, 10))

        (envelope,) = answer_envelopes(posted)
        assert envelope.sender == envelope.destination == producer
        assert envelope.hops == 0 and envelope.weight == 2
        sent = engine.traffic.node(producer).sent - sent_before
        assert sent == sends_of(posted, producer, but=envelope)
        assert engine.traffic.total_messages - messages_before == charged(posted)
        assert sorted(handle.values()) == [(1, 7), (1, 8)]
        assert {answer.delivered_at for answer in handle.answers} == {envelope.sent_at}
        engine.close()

    def test_raising_handler_leaves_no_buffered_answers(self, monkeypatch):
        engine = make_engine()
        producer = producer_of(engine)
        owner = another_node(engine, producer)
        handle = engine.submit(SQL, owner=owner)
        for d in range(3):
            engine.publish("S", (10, d))
        node = engine.nodes[producer]
        rewrites = []

        def failing_rewrite(query, tup, schema, plan=None):
            # The Eval at the producer meets its three stored S tuples in one
            # _trigger call; the second of them fails.
            if tup.relation == "S":
                rewrites.append(tup)
                if len(rewrites) == 2:
                    raise RuntimeError("injected handler failure")
            return rewrite_query(query, tup, schema, plan)

        monkeypatch.setattr(node_module, "rewrite_query", failing_rewrite)
        posted = record_posts(engine)
        triggered_before = engine.churn.queries_triggered
        with pytest.raises(RuntimeError, match="injected"):
            engine.publish("R", (1, 10))
        # The answer produced before the failure left with the failing
        # invocation; nothing waits for the next delivery to pick up.
        assert node._answers == {}
        (envelope,) = answer_envelopes(posted)
        assert envelope.weight == 1
        assert engine.loads.node(node.address).answers_produced == 1
        # The R tuple's trigger of the input query, and the first S tuple's.
        assert engine.churn.queries_triggered - triggered_before == 2
        monkeypatch.undo()
        engine.run()
        assert handle.values() == [(1, 0)]
        engine.publish("R", (2, 10))
        assert sorted(handle.values()) == [(1, 0), (2, 0), (2, 1), (2, 2)]
        engine.close()


class TestFailover:
    def test_crash_reroutes_the_answers_of_still_owned_queries(self):
        engine = make_engine()
        producer = producer_of(engine)
        owner = another_node(engine, producer)
        kept = engine.submit(SQL, owner=owner, process=False)
        gone = engine.submit(SQL, owner=owner)
        k = 3
        for d in range(k):
            engine.publish("S", (10, d))
        engine.publish("R", (1, 10), process=False)
        # Step until the shared record's 2k answers are in flight to the owner.
        in_flight = None
        while in_flight is None:
            assert engine.kernel.step(), "no answer envelope was ever posted"
            for _, args in engine.kernel.pending():
                candidate = args[0] if args else None
                if isinstance(getattr(candidate, "message", None), AnswerMessage):
                    in_flight = candidate
        assert in_flight.destination == owner and in_flight.weight == 2 * k
        # One of the two queries is retracted while the envelope travels.
        engine.lifecycle.mark_retracted(gone.query_id)
        engine.lifecycle.deregister(gone.query_id)
        dropped_before = engine.api.dropped_messages
        sent_before = engine.traffic.node(producer).sent

        engine.crash_node(owner)
        engine.run()

        # Counted per answer, not per envelope: k re-sent, k dropped.
        assert engine.churn.answers_rerouted == k
        assert engine.traffic.node(producer).sent - sent_before == k
        assert engine.api.dropped_messages - dropped_before == k
        assert kept.owner != owner
        assert sorted(kept.values()) == [(1, d) for d in range(k)]
        assert gone.count == 0
        engine.close()


class TestJitter:
    @pytest.mark.parametrize("runtime", ["sim", "asyncio"])
    def test_bags_equal_the_reference_under_delay_jitter(self, runtime):
        """One jitter draw per envelope keeps every answer and invents none."""
        generator = WorkloadGenerator(
            WorkloadSpec(num_relations=4, attributes_per_relation=3, value_domain=3,
                         join_arity=3, seed=11)
        )
        engine = RJoinEngine(
            RJoinConfig(num_nodes=12, seed=3, runtime=runtime, delay_jitter=0.5)
        )
        engine.register_catalog(generator.catalog)
        reference = ReferenceEngine(generator.catalog)
        handles = [engine.submit(query) for query in generator.generate_queries(6)]
        for handle in handles:
            reference.submit(handle.query, query_id=handle.query_id,
                             insertion_time=handle.insertion_time)
        for generated in generator.generate_tuples(60):
            tup = engine.publish(generated.relation, generated.values)
            reference.publish_tuple(tup)
        assert sum(handle.count for handle in handles) > 0
        for handle in handles:
            assert sorted(map(repr, handle.values())) == sorted(
                map(repr, reference.answers(handle.query_id))
            )
        engine.close()


class TestTimestamps:
    def answer_times(self, runtime):
        generator = WorkloadGenerator(
            WorkloadSpec(num_relations=4, attributes_per_relation=3, value_domain=3,
                         join_arity=3, seed=11)
        )
        engine = RJoinEngine(RJoinConfig(num_nodes=12, seed=3, runtime=runtime))
        engine.register_catalog(generator.catalog)
        handles = [engine.submit(query) for query in generator.generate_queries(6)]
        for generated in generator.generate_tuples(60):
            engine.publish(generated.relation, generated.values)
        times = sorted(
            (answer.query_id, repr(answer.values), answer.produced_at,
             answer.delivered_at)
            for handle in handles
            for answer in handle.answers
        )
        clock = engine.now
        engine.close()
        return times, clock

    def test_answer_times_do_not_depend_on_the_runtime(self):
        """Envelopes are stamped from the delivery that caused them, not from
        the asyncio clock (a high-water mark that depends on interleaving)."""
        times, clock = self.answer_times("sim")
        assert times
        assert all(produced <= delivered for _, _, produced, delivered in times)
        assert self.answer_times("asyncio") == (times, clock)

    def test_a_delivered_group_is_stamped_once(self):
        """A handle keeps one stamp per delivered group, not one per answer."""
        engine = make_engine()
        handle = engine.submit(SQL)
        engine.publish("S", (10, 0))
        engine.publish("S", (10, 1))
        engine.publish("R", (1, 10))
        one, other = handle.answers
        assert (one.produced_at, one.delivered_at, one.producer) == (
            other.produced_at, other.delivered_at, other.producer
        )
        assert len(handle.answers._starts) == 1
        engine.close()


class TestPlanLifetime:
    """Plans live in the shape a state carries, not in the node storing it."""

    def stored_records(self, node):
        for table in (node.input_queries, node.rewritten_queries):
            for _, records in table.items():
                yield from records

    def test_records_of_one_shape_share_one_plan(self):
        engine = make_engine()
        engine.submit(SQL)
        # Two rewrites waiting at S.c = 10 with different constants.
        engine.publish("R", (1, 10))
        engine.publish("R", (2, 10))
        engine.publish("S", (10, 0))
        node = engine.nodes[producer_of(engine)]
        plans = [record.plan for record in self.stored_records(node)]
        assert len(plans) == 2 and plans[0] is plans[1] is not None
        assert plans[0].complete and plans[0].relation == "S"
        (record, _) = self.stored_records(node)
        assert record.state.shape.plans == {"S": plans[0]}
        engine.close()

    def test_records_of_one_shape_on_different_nodes_share_one_plan(self):
        engine = make_engine()
        # Two queries of one shape: the engine hands both one shape.
        first, second = engine.submit(SQL), engine.submit(SQL)
        producer = producer_of(engine)
        other = next(
            value
            for value in range(11, 100)
            if engine.ring.owner_of_key(value_key("S", "c", value).text).address
            != producer
        )
        for value in (10, other):
            engine.publish("R", (value, value))
            engine.publish("S", (value, 0))
        homes = [
            engine.nodes[engine.ring.owner_of_key(value_key("S", "c", v).text).address]
            for v in (10, other)
        ]
        records = [
            record
            for home in homes
            for _, stored in home.rewritten_queries.items()
            for record in stored
        ]
        assert len(records) == 4
        assert {record.state.query_id for record in records} == {
            first.query_id, second.query_id
        }
        assert len({id(record.plan) for record in records}) == 1
        assert len({id(record.state.shape) for record in records}) == 1
        assert {(10, 0), (other, 0)} <= set(first.values())
        engine.close()

    def test_rehomed_record_keeps_its_plan(self):
        engine = make_engine()
        handle = engine.submit(SQL)
        engine.publish("R", (1, 10))
        engine.publish("S", (10, 0))
        old_home = engine.nodes[producer_of(engine)]
        (record,) = self.stored_records(old_home)
        plan = record.plan
        assert plan is not None
        items = old_home.extract_all()
        assert record.plan is plan
        new_home = engine.nodes[another_node(engine, old_home.address)]
        new_home.accept_rehomed(items)
        schema = engine.catalog.get("S")
        tup = engine.publish("S", (10, 1), process=False)
        new_home._trigger(record, (tup,), schema)
        new_home._flush_answers(engine.now)
        assert record.plan is plan is record.state.shape.plans["S"]
        engine.run()
        assert (1, 1) in handle.values()
        engine.close()

    def test_trigger_by_another_relation_replaces_the_plan(self):
        engine = make_engine()
        engine.submit(SQL)
        node = next(
            node for node in engine.nodes.values() if len(node.input_queries)
        )
        (record,) = self.stored_records(node)
        for relation, values in (("R", (1, 10)), ("S", (10, 2)), ("R", (3, 10))):
            tup = engine.publish(relation, values, process=False)
            node._trigger(record, (tup,), engine.catalog.get(relation))
            assert record.plan.relation == relation
            assert not record.plan.complete
            assert record.plan is record.state.shape.plans[relation]
        engine.run()
        engine.close()

    def test_shapes_are_freed_with_the_last_state_of_their_query(self):
        engine = make_engine()
        handle = engine.submit(SQL)
        engine.publish("R", (1, 10))
        engine.publish("S", (10, 0))
        (root,) = engine._shapes.values()
        child = weakref.ref(root.plans["R"].child_shape)
        root = weakref.ref(root)
        assert child().plans["S"].complete
        engine.remove_query(handle.query_id)
        engine.run()
        gc.collect()
        assert root() is None and child() is None
        assert len(engine._shapes) == 0
        engine.close()
