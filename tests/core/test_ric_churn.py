"""Churn-aware RIC: eager candidate-table invalidation on departures.

Candidate-table entries pointing at a departed node used to be rejected only
*lazily* — by the liveness check (now in ``RJoinNode._route``) at the moment
a one-hop shortcut was attempted.  Membership events now invalidate those
entries eagerly, and every node counts the stale one-hop attempts that slip
through (``RJoinNode.stale_one_hop_attempts``) as the regression probe.
"""

from __future__ import annotations

import pytest

from repro.core.config import RJoinConfig
from repro.core.engine import RJoinEngine
from repro.core.keys import IndexKey, attribute_key
from repro.core.protocol import QueryState, RicRequestMessage
from repro.core.reference import ReferenceEngine
from repro.core.ric import CandidateTable, RicEntry, arc_holds
from repro.workload.generator import WorkloadGenerator, WorkloadSpec


def entry(key_text: str, address: str, observed_at: float = 0.0) -> RicEntry:
    return RicEntry(
        key_text=key_text, rate=1.0, address=address, observed_at=observed_at
    )


class TestCandidateTableInvalidation:
    def test_invalidate_address_removes_only_matching_entries(self):
        table = CandidateTable()
        table.update(entry("k1", "node-1"))
        table.update(entry("k2", "node-2"))
        table.update(entry("k3", "node-1"))
        assert table.invalidate_address("node-1") == 2
        assert len(table) == 1
        assert table.lookup("k2") is not None
        assert table.lookup("k1") is None
        assert table.invalidate_address("node-1") == 0


def build_busy_engine(num_nodes: int = 16, seed: int = 5):
    """An engine whose candidate tables are warm (RIC strategy, traffic run)."""
    spec = WorkloadSpec(
        num_relations=4,
        attributes_per_relation=3,
        value_domain=4,
        join_arity=3,
        seed=seed,
    )
    generator = WorkloadGenerator(spec)
    engine = RJoinEngine(RJoinConfig(num_nodes=num_nodes, strategy="rjoin", seed=seed))
    engine.register_catalog(generator.catalog)
    for query in generator.generate_queries(8):
        engine.submit(query)
    for generated in generator.generate_tuples(30):
        engine.publish(generated.relation, generated.values)
    return engine, generator


def total_stale_attempts(engine: RJoinEngine) -> int:
    return sum(node.stale_one_hop_attempts for node in engine.nodes.values())


def cached_addresses(engine: RJoinEngine) -> set:
    return {
        cached.address
        for node in engine.nodes.values()
        for cached in node.candidate_table._entries.values()
    }


class TestEagerInvalidationOnMembership:
    @pytest.mark.parametrize("departure", ["leave", "crash"])
    def test_departure_purges_candidate_tables(self, departure):
        engine, generator = build_busy_engine()
        assert cached_addresses(engine), "warm-up left no RIC state to test"
        victim = "node-4"
        if departure == "leave":
            engine.remove_node(victim)
        else:
            engine.crash_node(victim)
        assert victim not in cached_addresses(engine)

    @pytest.mark.parametrize("departure", ["leave", "crash"])
    def test_no_stale_one_hop_attempts_after_departures(self, departure):
        """Regression: traffic after a departure never hits a stale address."""
        engine, generator = build_busy_engine()
        for victim in ("node-2", "node-9"):
            if departure == "leave":
                engine.remove_node(victim)
            else:
                engine.crash_node(victim)
        for query in generator.generate_queries(6):
            engine.submit(query)
        for generated in generator.generate_tuples(40):
            engine.publish(generated.relation, generated.values)
        assert total_stale_attempts(engine) == 0
        assert engine.metrics_summary()["stale_one_hop_attempts"] == 0.0

    def test_counter_detects_surviving_stale_entry(self):
        """The probe itself works: a stale one-hop address is counted.

        Bypasses the eager invalidation by sending with an explicit
        ``known_address`` of a departed node — exactly the situation the
        lazy check used to absorb silently — from a table with no arc to
        know better by.
        """
        engine, generator = build_busy_engine()
        victim = engine.crash_node("node-4")
        sender = engine.nodes["node-1"]
        sender.candidate_table.clear()
        query = next(iter(generator.generate_queries(1)))
        state = QueryState(
            query_id="probe#1",
            owner="node-1",
            query=query.validate(engine.catalog),
            insertion_time=engine.now,
            is_input=True,
        )
        relation = query.relations[0]
        key = attribute_key(relation, engine.catalog.get(relation).attributes[0])
        sender._send_query(state, key, known_address=victim)
        engine.run()
        assert sender.stale_one_hop_attempts == 1
        assert engine.metrics_summary()["stale_one_hop_attempts"] == 1.0
        # The engine-wide counter is monotone: attempts recorded by a node
        # that itself departs later must not vanish from the metric.
        engine.crash_node("node-1")
        assert engine.metrics_summary()["stale_one_hop_attempts"] == 1.0


# ---------------------------------------------------------------------------
# stale arcs: a RIC request sent in one hop on a hint a membership event undid
# (tests/core/test_arc_routing.py has the tuples and queries that were)
# ---------------------------------------------------------------------------
RUNTIMES = ("sim", "asyncio")


def key_on(engine: RJoinEngine, arc) -> IndexKey:
    """Some key that hashes onto ``arc``."""
    return next(
        key for key in (IndexKey("probe", "k", value) for value in range(10**6))
        if arc_holds(arc, engine.space.hash_key(key.text))
    )


class ArcScenario:
    """A warm ``rjoin`` engine beside its oracle, with one asker and one of
    the reporters whose arc the asker has cached picked out for a probe."""

    def __init__(self, runtime: str, seed: int = 5, num_nodes: int = 16) -> None:
        self.generator = WorkloadGenerator(
            WorkloadSpec(num_relations=4, attributes_per_relation=2, value_domain=8,
                         join_arity=3, seed=seed)
        )
        self.engine = RJoinEngine(
            RJoinConfig(num_nodes=num_nodes, runtime=runtime, strategy="rjoin",
                        seed=seed)
        )
        self.engine.register_catalog(self.generator.catalog)
        self.reference = ReferenceEngine(self.generator.catalog)
        self.handles = []
        for query in self.generator.generate_queries(24):
            handle = self.engine.submit(query)
            self.reference.submit(query, query_id=handle.query_id,
                                  insertion_time=handle.insertion_time)
            self.handles.append(handle)
        self.publish(30)
        nodes = self.engine.nodes.values()
        self.asker = max(nodes, key=lambda node: len(node.candidate_table._arc_of))
        # Nobody who owns a query leaves: answers on their way to a departed
        # owner are dropped by design, which is not what is tested here.
        owners = {handle.owner for handle in self.handles} | {self.asker.address}
        self.hinted = next(
            address for address in self.asker.candidate_table._arc_owners
            if address not in owners
        )

    def publish(self, count: int) -> None:
        for generated in self.generator.generate_tuples(count):
            self.reference.publish_tuple(
                self.engine.publish(generated.relation, generated.values)
            )

    def key_on(self, arc) -> IndexKey:
        return key_on(self.engine, arc)

    def ask(self, key: IndexKey) -> int:
        """The asker asks ``key`` for nobody; returns the key's identifier."""
        identifier = self.engine.space.hash_key(key.text)
        self.asker._route(
            RicRequestMessage(request_id="probe", origin=self.asker.address,
                              target_key=key),
            identifier,
        )
        self.engine.run()
        return identifier

    def misdirected(self) -> float:
        return self.engine.metrics_summary()["arc_sends_misdirected"]

    def finish(self) -> None:
        """More traffic on the changed ring, then every check of quiescence."""
        self.publish(30)
        engine = self.engine
        for handle in self.handles:
            assert sorted(map(repr, handle.values())) == sorted(
                map(repr, self.reference.answers(handle.query_id))
            )
        for node in engine.nodes.values():
            assert not node._pending_ric and not node._ric_waiters, node.address
            table = node.candidate_table
            assert set(table._arc_of) <= set(engine.nodes)
            assert len(table._arc_ends) == len(table._arc_of) <= len(engine.ring)
        assert engine.metrics_summary()["stale_one_hop_attempts"] == 0
        engine.close()


@pytest.mark.hard_timeout(120)
@pytest.mark.parametrize("runtime", RUNTIMES)
class TestStaleArcs:
    def test_a_join_that_splits_a_cached_arc_misdirects_one_request(self, runtime):
        s = ArcScenario(runtime)
        engine, table = s.engine, s.asker.candidate_table
        start, end = old_arc = engine.ring.arc_of(s.hinted)
        assert table._arc_of[s.hinted] == old_arc and s.misdirected() == 0
        middle = engine.space.midpoint(start, end)
        joined = engine.add_node(node_id=middle)
        # The newcomer's half is still the old owner's, as far as the asker knows.
        identifier = s.ask(s.key_on((start, middle)))
        assert engine.nodes[s.hinted].arc_sends_misdirected == 1
        assert s.misdirected() == 1
        # The old owner's notice cut the hint down to what it still owns, and
        # the reply carried the newcomer's arc: either half goes straight to
        # its owner now.
        assert table.owner_of(identifier) == joined
        assert table._arc_of[s.hinted] == (middle, end)
        s.ask(s.key_on((start, middle)))
        s.ask(s.key_on((middle, end)))
        assert s.misdirected() == 1
        s.finish()

    def test_an_id_movement_that_shrinks_a_cached_arc_misdirects_one_request(
        self, runtime
    ):
        s = ArcScenario(runtime)
        engine, table = s.engine, s.asker.candidate_table
        start, end = engine.ring.arc_of(s.hinted)
        heir = engine.ring.successor_of(engine.ring.node_by_address(s.hinted)).address
        middle = engine.space.midpoint(start, end)
        engine.ring.move_node(s.hinted, middle)
        engine.membership.rehome_misplaced(kind="move")
        identifier = s.ask(s.key_on((middle, end)))
        assert engine.nodes[s.hinted].arc_sends_misdirected == 1
        assert table.owner_of(identifier) == heir
        assert table._arc_of[heir] == engine.ring.arc_of(heir)
        assert table._arc_of[s.hinted] == (start, middle)
        s.ask(s.key_on((middle, end)))
        s.ask(s.key_on((start, middle)))
        assert s.misdirected() == 1
        s.finish()

    def test_a_graceful_leave_takes_its_arc_along_and_misdirects_nothing(
        self, runtime
    ):
        s = ArcScenario(runtime)
        engine, table = s.engine, s.asker.candidate_table
        old_arc = engine.ring.arc_of(s.hinted)
        heir = engine.ring.successor_of(engine.ring.node_by_address(s.hinted)).address
        engine.remove_node(s.hinted)
        for node in engine.nodes.values():
            assert s.hinted not in node.candidate_table._arc_of
            assert s.hinted not in node.candidate_table._arc_owners
        identifier = s.ask(s.key_on(old_arc))
        assert table.owner_of(identifier) == heir
        assert table._arc_of[heir] == engine.ring.arc_of(heir)
        assert s.misdirected() == 0
        s.finish()

    def test_a_crash_with_a_direct_request_in_flight_hands_the_chain_back(
        self, runtime, small_catalog
    ):
        """Nothing is published before the crash, so it has no state to lose."""
        engine = RJoinEngine(
            RJoinConfig(num_nodes=16, seed=7, strategy="rjoin", runtime=runtime),
            catalog=small_catalog,
        )
        reference = ReferenceEngine(small_catalog)
        sql = "SELECT R.a, T.f FROM R, S, T WHERE R.b = S.c AND S.d = T.e"
        first_key = attribute_key("R", "b")  # where the chain of ``sql`` starts
        victim = engine.ring.owner_of_key(first_key.text).address
        asker = engine.nodes[next(a for a in engine.ring.addresses if a != victim)]
        # The victim reports about some other key of its arc: the asker knows
        # whom to ask about ``first_key``, but not the answer.
        warm = key_on(engine, engine.ring.arc_of(victim))
        asker._route(
            RicRequestMessage(request_id="warm", origin=asker.address, target_key=warm),
            engine.space.hash_key(warm.text),
        )
        engine.run()
        assert asker.arc_sends_direct == 0
        handle = engine.submit(sql, owner=asker.address, process=False)
        reference.submit(handle.query, query_id=handle.query_id,
                         insertion_time=handle.insertion_time)
        assert asker.arc_sends_direct == 1
        assert first_key.text in asker._ric_waiters

        engine.crash_node(victim)
        assert engine.api.dropped_messages == 1
        assert asker.ric_chains_lost == 1
        # Asked again — through the ring: the victim's arc left with it.
        assert first_key.text in asker._ric_waiters
        assert asker.arc_sends_direct == 1
        assert victim not in asker.candidate_table._arc_of
        engine.run()
        assert not asker._pending_ric and not asker._ric_waiters
        for relation, values in [("R", (1, 10)), ("S", (10, 20)), ("T", (20, 99))]:
            reference.publish_tuple(engine.publish(relation, values))
        assert handle.values() == reference.answers(handle.query_id) != []
        summary = engine.metrics_summary()
        assert summary["arc_sends_misdirected"] == 0
        assert summary["stale_one_hop_attempts"] == 0
        engine.close()


@pytest.mark.hard_timeout(120)
def test_never_more_arcs_than_live_members_after_three_rings_worth_of_churn():
    """36 addresses pass through a ring of 12: each table ends with at most
    one arc per node that is still there, none for one that is not."""
    s = ArcScenario("sim", seed=9, num_nodes=12)
    engine = s.engine
    owners = {handle.owner for handle in s.handles}
    for round_number in range(24):
        engine.add_node()
        s.publish(4)
        leavers = [a for a in engine.ring.addresses if a not in owners]
        victim = engine._churn_rng.choice(leavers)
        if round_number % 3 == 2:
            engine.crash_node(victim)
        else:
            engine.remove_node(victim)
        s.publish(4)
    assert engine._next_node_index == 36 and len(engine.ring) == 12
    assert max(len(node.candidate_table._arc_of) for node in engine.nodes.values()) > 1
    for node in engine.nodes.values():
        table = node.candidate_table
        assert set(table._arc_of) <= set(engine.nodes)
        assert len(table._arc_ends) == len(table._arc_of) <= len(engine.ring)
        assert table._arc_ends == sorted(end for _, end in table._arc_of.values())
    summary = engine.metrics_summary()
    assert summary["stale_one_hop_attempts"] == 0
    assert summary["arc_sends_direct"] > 0
    for node in engine.nodes.values():
        assert not node._pending_ric and not node._ric_waiters
    engine.close()
