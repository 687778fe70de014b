"""The routing cache: every keyed message travels on the arcs the RIC path learned.

A node that ever received a RIC entry of another knows which arc of the ring
that one owns, and sends whatever is for an identifier on it — a published
tuple, an input or rewritten query, a RIC question — there in one hop
(``RJoinNode._route``).  The address is a hint and the receiver decides: a
node handed a message for an identifier it does not own passes it on through
the ring and tells the sender its present arc (``ArcNoticeMessage``), so a
stale arc misdirects one message per sender; a node a message reached through
the ring tells the sender its arc and the arcs it has cached, so a missing
arc costs one routed message per sender.  Strategies that never ask RIC learn
no arcs, are told none and send what they always sent.
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import RJoinConfig
from repro.core.engine import RJoinEngine
from repro.core.keys import tuple_index_keys, value_key
from repro.core.protocol import (
    ArcNoticeMessage,
    EvalMessage,
    NewTupleMessage,
    RicRequestMessage,
)
from repro.core.reference import ReferenceEngine
from repro.core.ric import CandidateTable, RicEntry
from repro.data.schema import Catalog
from repro.workload.generator import WorkloadGenerator, WorkloadSpec
from tests.core.test_ric_churn import key_on

pytestmark = pytest.mark.hard_timeout(300)

RUNTIMES = ("sim", "asyncio")
SQL = "SELECT R.a, S.d FROM R, S WHERE R.b = S.c"


def two_relations() -> Catalog:
    catalog = Catalog()
    catalog.add_relation("R", ["a", "b"])
    catalog.add_relation("S", ["c", "d"])
    return catalog


def make_report(engine: RJoinEngine, asker: str, owner: str) -> None:
    """``owner`` reports to ``asker`` about some key of its arc — any key."""
    key = key_on(engine, engine.ring.arc_of(owner))
    engine.nodes[asker]._route(
        RicRequestMessage(request_id="probe", origin=asker, target_key=key),
        engine.space.hash_key(key.text),
    )
    engine.run()


Sent = Tuple[type, str, str, str]


def watch_sends(engine: RJoinEngine) -> List[Sent]:
    """``(message type, "routed" | "direct", sender, destination)`` of every
    message handed to ``send`` / ``send_direct`` from now on, in order."""
    sent: List[Sent] = []
    send, send_direct = engine.api.send, engine.api.send_direct

    def spied_send(sender, message, identifier, *args, **kwargs):
        envelope = send(sender, message, identifier, *args, **kwargs)
        sent.append((type(message), "routed", sender, envelope.destination))
        return envelope

    def spied_send_direct(sender, message, destination, *args, **kwargs):
        sent.append((type(message), "direct", sender, destination))
        return send_direct(sender, message, destination, *args, **kwargs)

    engine.api.send, engine.api.send_direct = spied_send, spied_send_direct
    return sent


def assert_quiescent(engine: RJoinEngine) -> None:
    """Nothing waits for RIC, and no table holds an arc of a node that left."""
    for node in engine.nodes.values():
        assert not node._pending_ric and not node._ric_waiters, node.address
        table = node.candidate_table
        assert set(table._arc_of) <= set(engine.nodes), node.address
        assert len(table._arc_ends) == len(table._arc_of) <= len(engine.ring)


# ---------------------------------------------------------------------------
# (a) publication on arcs
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("runtime", RUNTIMES)
def test_a_second_publish_costs_one_message_per_key_once_the_owners_reported(runtime):
    engine = RJoinEngine(
        RJoinConfig(num_nodes=16, seed=7, strategy="rjoin", runtime=runtime),
        catalog=two_relations(),
    )
    ring, traffic = engine.ring, engine.traffic
    publisher = engine.nodes["node-3"]
    identifiers = [
        engine.space.hash_key(key.text)
        for key in tuple_index_keys(
            engine._build_tuple("R", (1, 10), "node-3"), engine.catalog.get("R")
        )
    ]
    me = ring.node_by_address("node-3")
    hops = [len(ring.route_path(me, identifier)) - 1 for identifier in identifiers]
    owners = [ring.successor(identifier).address for identifier in identifiers]
    remote = [owner for owner in owners if owner != "node-3"]
    assert len(identifiers) == 4 and sum(hops) > len(remote) > 0

    # One owner has reported, about some other key: its keys cost one message,
    # the others the paper's O(log N) routed hops — and the notice in which
    # the owner each of them reached says which arc it owns.
    reporter = remote[0]
    make_report(engine, "node-3", reporter)
    assert set(publisher.candidate_table._arc_of) == {reporter}
    sent = watch_sends(engine)
    before = traffic.total_messages
    engine.publish("R", (1, 10), publisher="node-3")
    told = [owner for owner in remote if owner != reporter]
    assert traffic.total_messages - before == sum(
        1 if owner == reporter else hop for owner, hop in zip(owners, hops)
    ) + len(told)
    assert publisher.arc_sends_direct == owners.count(reporter)
    assert sorted(s for s in sent if s[0] is ArcNoticeMessage) == sorted(
        (ArcNoticeMessage, "direct", owner, "node-3") for owner in told
    )

    # All have, one way or the other: 2k messages, less the keys that are the
    # publisher's own, and nobody is told anything twice.
    assert set(publisher.candidate_table._arc_of) == set(remote)
    del sent[:]
    before = traffic.total_messages
    engine.publish("R", (1, 10), publisher="node-3")
    assert traffic.total_messages - before == len(remote)
    assert {s[:2] for s in sent} == {(NewTupleMessage, "direct")}
    assert engine.metrics_summary()["arc_sends_misdirected"] == 0
    assert sum(node.stored_tuples for node in engine.nodes.values()) == 2 * 2
    engine.close()


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_a_miss_fills_the_table_with_what_the_owner_has_cached(runtime):
    """The notice carries the owner's own table: a node's first routed message
    teaches it every arc the owner it reached has learned, each as old as the
    owner's observation of it — a newer one of the node's own stands."""
    engine = RJoinEngine(
        RJoinConfig(num_nodes=16, seed=7, strategy="rjoin", runtime=runtime),
        catalog=two_relations(),
    )
    knowing = engine.nodes["node-3"]
    others = [a for a in engine.ring.addresses if a not in ("node-3", "node-9")]
    for address in others:
        make_report(engine, "node-3", address)
    assert set(knowing.candidate_table._arc_of) == set(others)
    seen = dict(knowing.candidate_table._arc_seen)

    asker = engine.nodes["node-9"]
    make_report(engine, "node-9", others[0])  # later than node-3 heard of it
    own = asker.candidate_table._arc_seen[others[0]]
    assert own > seen[others[0]]
    key = key_on(engine, engine.ring.arc_of("node-3"))
    tup = engine._build_tuple("R", (1, 10), "node-9")
    sent = watch_sends(engine)
    asker._route(
        NewTupleMessage(tuple=tup, key=key, publisher="node-9"),
        engine.space.hash_key(key.text),
    )
    engine.run()
    assert [s for s in sent if s[1] == "direct"] == [
        (ArcNoticeMessage, "direct", "node-3", "node-9")
    ]
    table = asker.candidate_table
    assert table._arc_of == {
        address: engine.ring.arc_of(address) for address in others + ["node-3"]
    }
    assert table._arc_seen[others[0]] == own
    assert table._arc_seen[others[1]] == seen[others[1]]
    # ...and now every key but its own goes in one hop.
    del sent[:]
    engine.publish("R", (1, 10), publisher="node-9")
    assert {s[:2] for s in sent} == {(NewTupleMessage, "direct")}
    assert_quiescent(engine)
    engine.close()


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_the_arcs_outlive_the_last_query(runtime):
    """``vacuum`` drops the RIC entries, which were about queries' keys — not
    the arcs, which are about the ring: the next query's tuples go direct."""
    engine = RJoinEngine(
        RJoinConfig(num_nodes=16, seed=7, strategy="rjoin", runtime=runtime),
        catalog=two_relations(),
    )
    handle = engine.submit(SQL, owner="node-0")
    (home,) = [node for node in engine.nodes.values() if node.input_queries]
    engine.publish("R", (1, 2), publisher=home.address)
    target = value_key("S", "c", 2)
    owner = engine.ring.owner_of_key(target.text).address
    assert home.candidate_table._arc_of[owner] == engine.ring.arc_of(owner)
    entries = sum(len(node.candidate_table) for node in engine.nodes.values())
    arcs = {a: dict(n.candidate_table._arc_of) for a, n in engine.nodes.items()}
    assert entries > 0

    engine.remove_query(handle.query_id)
    assert engine.metrics_summary()["records_vacuumed"] >= entries
    for address, node in engine.nodes.items():
        assert len(node.candidate_table) == 0
        assert node.candidate_table._arc_of == arcs[address]

    again = engine.submit(SQL, owner="node-0")
    sent = watch_sends(engine)
    engine.publish("S", (2, 99), publisher=home.address)
    assert (NewTupleMessage, "direct", home.address, owner) in sent
    assert (NewTupleMessage, "routed", home.address, owner) not in sent
    engine.publish("R", (5, 2), publisher=home.address)
    assert again.values() == [(5, 99)]
    engine.close()


# ---------------------------------------------------------------------------
# (b) arcs a membership event made stale
# ---------------------------------------------------------------------------
class StaleArc:
    """One query R ⋈ S, its home node (where R tuples are rewritten), and the
    node the home has learned to be the owner of ``S.c = 2`` — by asking it,
    before a membership event takes the key away from it (or it away).

    After :meth:`warm` the home holds a RIC entry for that key naming the
    old owner, and the arc of every node: its next ``Eval`` for the key, and
    its next tuple with ``S.c = 2``, both go where the key no longer is —
    and whatever else it sends goes in one hop, so that every notice seen
    from then on is about that key.
    """

    VALUE = 2

    def __init__(self, runtime: str) -> None:
        catalog = two_relations()
        self.engine = engine = RJoinEngine(
            RJoinConfig(num_nodes=16, seed=7, strategy="rjoin", runtime=runtime),
            catalog=catalog,
        )
        self.reference = ReferenceEngine(catalog)
        self.handle = engine.submit(SQL, owner="node-0")
        self.reference.submit(self.handle.query, query_id=self.handle.query_id,
                              insertion_time=self.handle.insertion_time)
        (self.home,) = [node for node in engine.nodes.values() if node.input_queries]
        self.key = value_key("S", "c", self.VALUE)
        self.identifier = engine.space.hash_key(self.key.text)
        self.old_owner = engine.ring.owner_of_key(self.key.text).address
        self.old_arc = engine.ring.arc_of(self.old_owner)
        assert self.old_owner not in ("node-0", self.home.address)
        self.sent = watch_sends(engine)

    def warm(self) -> None:
        """The home asks every node about some key, and the old owner about
        the key, for nobody: it caches the answers and the arcs, and nothing
        is stored anywhere."""
        for address in self.engine.ring.addresses:
            make_report(self.engine, self.home.address, address)
        self.home._route(
            RicRequestMessage(request_id="warm", origin=self.home.address,
                              target_key=self.key),
            self.identifier,
        )
        self.engine.run()
        table = self.home.candidate_table
        assert table.lookup(self.key.text, self.engine.now).address == self.old_owner
        assert table.owner_of(self.identifier) == self.old_owner
        del self.sent[:]

    def publish(self, relation: str, values: tuple) -> None:
        """The home publishes (it is the one holding the stale arc)."""
        self.reference.publish_tuple(
            self.engine.publish(relation, values, publisher=self.home.address)
        )

    def to_the_key(self, kind: type) -> List[Sent]:
        """The ``kind`` messages sent for the key's owner so far, and reset."""
        owners = {self.old_owner, self.engine.ring.owner_of_key(self.key.text).address}
        found = [s for s in self.sent if s[0] is kind and s[3] in owners]
        del self.sent[:]
        return found

    def notices(self) -> List[Sent]:
        """The arc notices sent so far (:meth:`to_the_key` resets)."""
        return [s for s in self.sent if s[0] is ArcNoticeMessage]

    def misdirected(self) -> float:
        return self.engine.metrics_summary()["arc_sends_misdirected"]

    def finish(self) -> None:
        engine = self.engine
        assert sorted(map(repr, self.handle.values())) == sorted(
            map(repr, self.reference.answers(self.handle.query_id))
        )
        assert self.handle.count > 0
        assert_quiescent(engine)
        assert engine.metrics_summary()["stale_one_hop_attempts"] == 0
        assert engine.metrics_summary()["dropped_messages"] == 0
        engine.close()


def split_by_join(s: StaleArc) -> str:
    """A newcomer takes the part of the old owner's arc that holds the key."""
    return s.engine.add_node(node_id=s.identifier)


def shrink_by_id_movement(s: StaleArc) -> str:
    """The old owner moves to just before the key: its successor inherits it."""
    ring = s.engine.ring
    heir = ring.successor_of(ring.node_by_address(s.old_owner)).address
    ring.move_node(s.old_owner, s.identifier - 1)
    s.engine.membership.rehome_misplaced(kind="move")
    return heir


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("event", [split_by_join, shrink_by_id_movement])
class TestStaleArcForwards:
    """The old owner is still there, and no longer the owner: it forwards."""

    def test_a_tuple_sent_on_the_stale_arc(self, runtime, event):
        s = StaleArc(runtime)
        s.warm()
        s.publish("R", (1, s.VALUE))  # an Eval is stored at the old owner
        new_owner = event(s)
        assert s.engine.ring.owner_of_key(s.key.text).address == new_owner
        assert s.home.candidate_table._arc_of[s.old_owner] == s.old_arc
        del s.sent[:]

        s.publish("S", (s.VALUE, 7))
        assert s.misdirected() == 1
        assert s.engine.nodes[s.old_owner].arc_sends_misdirected == 1
        # The old owner tells the home, and is told by the owner the ring
        # found for it.
        assert s.notices() == [
            (ArcNoticeMessage, "direct", s.old_owner, s.home.address),
            (ArcNoticeMessage, "direct", new_owner, s.old_owner),
        ]
        assert s.to_the_key(NewTupleMessage) == [
            (NewTupleMessage, "direct", s.home.address, s.old_owner),
            (NewTupleMessage, "routed", s.old_owner, new_owner),
        ]
        # Told once: the old owner's arc is what it owns now, and the next
        # tuple for the key finds its owner through the ring — who says so,
        # and the one after that goes there in one hop.
        table = s.home.candidate_table
        assert table._arc_of[s.old_owner] == s.engine.ring.arc_of(s.old_owner)
        s.publish("S", (s.VALUE, 8))
        assert s.notices() == [
            (ArcNoticeMessage, "direct", new_owner, s.home.address)
        ]
        assert s.to_the_key(NewTupleMessage) == [
            (NewTupleMessage, "routed", s.home.address, new_owner)
        ]
        assert table._arc_of[new_owner] == s.engine.ring.arc_of(new_owner)
        s.publish("S", (s.VALUE, 9))
        assert s.to_the_key(NewTupleMessage) == [
            (NewTupleMessage, "direct", s.home.address, new_owner)
        ]
        assert s.misdirected() == 1 and s.notices() == []
        assert s.handle.count == 3
        s.finish()

    def test_an_eval_sent_on_the_stale_arc(self, runtime, event):
        s = StaleArc(runtime)
        s.warm()
        new_owner = event(s)
        del s.sent[:]

        # The rate of the key is cached, so nothing is asked: the rewritten
        # query leaves at once, for the address the cached entry names.
        s.publish("R", (1, s.VALUE))
        assert s.misdirected() == 1
        assert s.notices() == [
            (ArcNoticeMessage, "direct", s.old_owner, s.home.address),
            (ArcNoticeMessage, "direct", new_owner, s.old_owner),
        ]
        assert s.to_the_key(EvalMessage) == [
            (EvalMessage, "direct", s.home.address, s.old_owner),
            (EvalMessage, "routed", s.old_owner, new_owner),
        ]
        assert s.engine.nodes[new_owner].stored_rewritten_queries == 1
        # The entry still names the old owner; its arc says otherwise now.
        assert s.home.candidate_table.lookup(
            s.key.text, s.engine.now
        ).address == s.old_owner
        s.publish("R", (2, s.VALUE))
        assert s.notices() == [
            (ArcNoticeMessage, "direct", new_owner, s.home.address)
        ]
        assert s.to_the_key(EvalMessage) == [
            (EvalMessage, "routed", s.home.address, new_owner)
        ]
        assert s.engine.nodes[new_owner].stored_rewritten_queries == 2
        s.publish("R", (3, s.VALUE))  # ...and the new owner's arc the rest
        assert s.to_the_key(EvalMessage) == [
            (EvalMessage, "direct", s.home.address, new_owner)
        ]
        s.publish("S", (s.VALUE, 9))
        assert s.misdirected() == 1 and s.notices() == []
        assert sorted(s.handle.values()) == [(1, 9), (2, 9), (3, 9)]
        s.finish()


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("departure", ["leave", "crash"])
def test_a_departure_takes_its_arc_along_so_nothing_is_sent_on_it(runtime, departure):
    """A leave or a crash is announced (``forget_address``): the arc and the
    entries of the departed go at once, the heir's cached arc is a part of
    what it owns now, and no tuple and no query is misdirected — not one.
    The first message for the key is routed, and the heir says what it owns."""
    s = StaleArc(runtime)
    s.warm()  # stores nothing at the old owner: a crash has no state to lose
    ring = s.engine.ring
    heir = ring.successor_of(ring.node_by_address(s.old_owner)).address
    if departure == "leave":
        s.engine.remove_node(s.old_owner, graceful=True)
    else:
        s.engine.crash_node(s.old_owner)
    table = s.home.candidate_table
    assert s.old_owner not in table._arc_of
    assert table.lookup(s.key.text, s.engine.now) is None
    del s.sent[:]

    s.publish("S", (s.VALUE, 7))
    assert s.notices() == [(ArcNoticeMessage, "direct", heir, s.home.address)]
    assert s.to_the_key(NewTupleMessage) == [
        (NewTupleMessage, "routed", s.home.address, heir)
    ]
    assert table._arc_of[heir] == ring.arc_of(heir)
    s.publish("R", (1, s.VALUE))
    assert s.to_the_key(EvalMessage) == [
        (EvalMessage, "direct", s.home.address, heir)
    ]
    s.publish("S", (s.VALUE, 8))
    assert s.to_the_key(NewTupleMessage) == [
        (NewTupleMessage, "direct", s.home.address, heir)
    ]
    assert s.misdirected() == 0 and s.notices() == []
    assert sorted(s.handle.values()) == [(1, 7), (1, 8)]
    s.finish()


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_any_address_is_only_a_hint_and_the_receiver_decides(runtime):
    """Whatever put a wrong arc into a table: the node it names passes the
    message on, says what it owns, and is believed."""
    s = StaleArc(runtime)
    ring = s.engine.ring
    bystander = ring.successor_of(ring.node_by_address(s.old_owner)).address
    assert bystander != s.home.address
    table = s.home.candidate_table
    table.learn_arc(bystander, s.old_arc, s.engine.now)
    s.publish("R", (1, s.VALUE))  # an Eval: its one candidate is no question
    assert s.misdirected() == 1
    assert s.to_the_key(EvalMessage) == [
        # ...passed on by the bystander.
        (EvalMessage, "routed", bystander, s.old_owner)
    ]
    assert table._arc_of[bystander] == ring.arc_of(bystander)
    # Nobody is known for the key now: the next message for it is routed, and
    # its owner answers that with its arc.
    assert table.owner_of(s.identifier) is None
    s.publish("S", (s.VALUE, 7))
    assert table._arc_of[s.old_owner] == s.old_arc
    assert s.misdirected() == 1
    s.finish()


class TestHint:
    """``CandidateTable.owner_of(identifier, hint)``: arcs first."""

    def test_a_hint_counts_only_while_no_arc_of_its_address_is_cached(self):
        table = CandidateTable()
        assert table.owner_of(5) is None
        assert table.owner_of(5, hint="n1") == "n1"
        table.update(RicEntry("k", 1.0, "n2", 0.0, arc=(0, 10)))
        assert table.owner_of(5, hint="n1") == "n2"      # an arc holds it
        assert table.owner_of(15, hint="n1") == "n1"     # nothing known
        table.learn_arc("n1", (20, 30), 1.0)
        assert table.owner_of(15, hint="n1") is None     # n1 owns (20, 30]
        assert table.owner_of(25) == "n1"

    def test_clear_entries_keeps_the_arcs(self):
        table = CandidateTable()
        table.update(RicEntry("k", 1.0, "n2", 0.0, arc=(0, 10)))
        assert table.clear_entries() == 1 and len(table) == 0
        assert table.owner_of(5) == "n2"
        table.clear()
        assert table.owner_of(5) is None


# ---------------------------------------------------------------------------
# (c) strategies that never ask learn no arcs and send what they always sent
# ---------------------------------------------------------------------------
#: ``(strategy, runtime) -> (total messages, digest of the per-node sent /
#: routed counts)`` of the cell below at the parent commit, where tuples left
#: in ``multi_send`` and queries in ``send``; the answer bags are the same for
#: all.  (``random`` draws in handler order, which is the runtime's.)
PARENT_TRAFFIC = {
    ("random", "sim"): (38140, "18f4a82bb7a6de7a"),
    ("random", "asyncio"): (38502, "0ebc8d26eb605a9c"),
    ("worst", "sim"): (33619, "5087693fa2d9bfee"),
    ("worst", "asyncio"): (33619, "5087693fa2d9bfee"),
    ("first", "sim"): (36825, "25a877697d546930"),
    ("first", "asyncio"): (36825, "25a877697d546930"),
}
PARENT_ANSWERS = (17371, "93ba117e6f1bd66f")


def digest(value: object) -> str:
    return hashlib.sha1(repr(value).encode()).hexdigest()[:16]


@pytest.mark.parametrize("strategy, runtime", sorted(PARENT_TRAFFIC))
def test_a_strategy_that_never_asks_sends_exactly_what_it_did(strategy, runtime):
    generator = WorkloadGenerator(
        WorkloadSpec(num_relations=4, attributes_per_relation=3, value_domain=12,
                     join_arity=3, seed=11)
    )
    engine = RJoinEngine(
        RJoinConfig(num_nodes=32, strategy=strategy, seed=11, runtime=runtime)
    )
    engine.register_catalog(generator.catalog)
    handles = [engine.submit(query) for query in generator.generate_queries(40)]
    for generated in generator.generate_tuples(120):
        engine.publish(generated.relation, generated.values)
    per_node = sorted(
        (address, counters.sent, counters.routed)
        for address, counters in engine.traffic.per_node().items()
    )
    bags = sorted((h.query_id, sorted(map(repr, h.values()))) for h in handles)
    assert (engine.traffic.total_messages, digest(per_node)) == PARENT_TRAFFIC[
        strategy, runtime
    ]
    assert (sum(h.count for h in handles), digest(bags)) == PARENT_ANSWERS
    summary = engine.metrics_summary()
    assert summary["arc_sends_direct"] == summary["arc_sends_misdirected"] == 0
    for node in engine.nodes.values():
        assert not node.candidate_table._arc_of and len(node.candidate_table) == 0
    engine.close()


# ---------------------------------------------------------------------------
# (d) property: membership events between any two messages' quiescent points
# ---------------------------------------------------------------------------
def stateless(engine: RJoinEngine) -> List[str]:
    """Nodes a crash of which destroys nothing (and that own no query)."""
    return [
        address
        for address, node in engine.nodes.items()
        if address != "node-0"
        and not node.input_queries and not node.rewritten_queries
        and not node.stored_tuples and not len(node.altt)
        and not node.registrations
    ]


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    runtime=st.sampled_from(RUNTIMES),
    jitter=st.sampled_from([0.25, 0.5, 1.0, 1.5]),
    steps=st.lists(
        st.sampled_from(
            ["publish"] * 6 + ["submit"] * 2 + ["join", "leave", "crash"]
        ),
        min_size=15, max_size=45,
    ),
)
def test_churn_between_messages_keeps_the_bags_and_leaves_no_stale_state(
    seed, runtime, jitter, steps
):
    generator = WorkloadGenerator(
        WorkloadSpec(num_relations=4, attributes_per_relation=2, value_domain=6,
                     join_arity=3, seed=seed)
    )
    engine = RJoinEngine(
        RJoinConfig(num_nodes=12, runtime=runtime, strategy="rjoin", seed=seed,
                    delay_jitter=jitter)
    )
    engine.register_catalog(generator.catalog)
    reference = ReferenceEngine(generator.catalog)
    queries = iter(generator.generate_queries(len(steps) + 4))
    tuples = iter(generator.generate_tuples(len(steps)))
    handles = []

    def submit() -> None:
        handle = engine.submit(next(queries), owner="node-0")
        reference.submit(handle.query, query_id=handle.query_id,
                         insertion_time=handle.insertion_time)
        handles.append(handle)

    try:
        for _ in range(4):
            submit()
        for step in steps:
            if step == "publish":
                generated = next(tuples)
                reference.publish_tuple(
                    engine.publish(generated.relation, generated.values)
                )
            elif step == "submit":
                submit()
            elif step == "join":
                engine.add_node()
            elif len(engine.ring) > 6:
                if step == "leave":
                    leavers = [a for a in engine.ring.addresses if a != "node-0"]
                    engine.remove_node(engine._churn_rng.choice(leavers))
                elif stateless(engine):
                    engine.crash_node(engine._churn_rng.choice(stateless(engine)))
            engine.run()
            assert_quiescent(engine)
        for handle in handles:
            assert sorted(map(repr, handle.values())) == sorted(
                map(repr, reference.answers(handle.query_id))
            )
        summary = engine.metrics_summary()
        assert summary["stale_one_hop_attempts"] == 0
        # One per sender per stale arc, and only a join leaves one behind
        # (a departure takes its arc along): at most one per table.
        joins = summary["joins"]
        assert summary["arc_sends_misdirected"] <= joins * (12 + joins)
    finally:
        engine.close()
