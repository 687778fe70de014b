"""The RIC path: one question per key in flight per node, one hop per question.

An indexing decision that needs RIC information (Section 6) asks only the
candidate keys no chain of its node is asking already and waits with those
chains for the rest; a reply resolves its keys' waiters, and a chain a crash
destroys is handed back to its origin, which asks again.  The waiter index
(``RJoinNode._ric_waiters``) may never outlive a chain: a key is in it
exactly while one chain of the node is in flight asking it.  And a question
is asked only if its answer could change the choice: a lone candidate is sent
at once, and once a known candidate stands at rate 0.0 only the unknown ones
that would win a tie with it are asked (``RJoinStrategy.worth_asking``) — so
the hand-driven decisions here all have a second candidate, ``KNOWN``, that
the table knows at a rate anything asked may still beat.  An entry that
keeps deciding is asked again at its 8th, 16th, 32nd ... use
(``CandidateTable.lookup``), with the keys it is compared with.  A request goes
to its key's owner in one hop once that owner has reported about any key at
all — its entries say which arc of the ring it owns — and through the ring
until then (``tests/core/test_ric_churn.py`` has the arcs that went stale,
``tests/core/test_arc_routing.py`` the other messages that travel on them).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import RJoinConfig
from repro.core.engine import RJoinEngine
from repro.core.keys import attribute_key, value_key
from repro.core.node import RJoinNode
from repro.core.protocol import (
    EvalMessage,
    IndexQueryMessage,
    QueryState,
    RicReplyMessage,
    RicRequestMessage,
)
from repro.core.reference import ReferenceEngine
from repro.core.ric import REASK_FROM, RicEntry
from repro.data.schema import Catalog
from repro.sql.parser import parse_query
from repro.workload.generator import WorkloadGenerator, WorkloadSpec

pytestmark = pytest.mark.hard_timeout(300)

RUNTIMES = ("sim", "asyncio")
SQL = "SELECT R.a, T.f FROM R, S, T WHERE R.b = S.c AND S.d = T.e"
K1 = attribute_key("R", "b")
K2 = attribute_key("S", "c")
K3 = attribute_key("S", "d")
#: The second candidate of the decisions :meth:`Harness.index` makes: known
#: at a rate above zero, so every unknown key beside it is worth its question.
KNOWN = attribute_key("T", "e")


def spy_on_posts(engine: RJoinEngine) -> List[object]:
    """Every message handed to ``send`` / ``send_direct`` from now on, in order."""
    posted: List[object] = []

    def spy(primitive):
        def spied(sender, message, *args, **kwargs):
            posted.append(message)
            return primitive(sender, message, *args, **kwargs)

        return spied

    engine.api.send = spy(engine.api.send)
    engine.api.send_direct = spy(engine.api.send_direct)
    return posted


def spy_on_requests(engine: RJoinEngine):
    """``(routed, direct)``: the RIC requests handed to ``send`` / ``send_direct``
    from now on, the direct ones with the address they were sent to."""
    routed: List[RicRequestMessage] = []
    direct: List[tuple] = []
    send, send_direct = engine.api.send, engine.api.send_direct

    def spied_send(sender, message, identifier, *args, **kwargs):
        if isinstance(message, RicRequestMessage):
            routed.append(message)
        return send(sender, message, identifier, *args, **kwargs)

    def spied_send_direct(sender, message, destination, *args, **kwargs):
        if isinstance(message, RicRequestMessage):
            direct.append((message, destination))
        return send_direct(sender, message, destination, *args, **kwargs)

    engine.api.send, engine.api.send_direct = spied_send, spied_send_direct
    return routed, direct


def chains_started(posted) -> List[RicRequestMessage]:
    """The chain heads among ``posted`` (a forwarded hop carries ``collected``)."""
    return [
        message
        for message in posted
        if isinstance(message, RicRequestMessage) and not message.collected
    ]


def assert_ric_path_idle(engine: RJoinEngine) -> None:
    for node in engine.nodes.values():
        assert not node._pending_ric, node.address
        assert not node._ric_waiters, node.address


class Harness:
    """One origin node of a small ``rjoin`` engine, driven by hand."""

    def __init__(self, **config) -> None:
        catalog = Catalog()
        catalog.add_relation("R", ["a", "b"])
        catalog.add_relation("S", ["c", "d"])
        catalog.add_relation("T", ["e", "f"])
        self.engine = RJoinEngine(
            RJoinConfig(num_nodes=16, seed=7, strategy="rjoin", **config),
            catalog=catalog,
        )
        self.query = parse_query(SQL, catalog=catalog)
        self.node = self.engine.nodes["node-0"]
        self.posted = spy_on_posts(self.engine)
        #: ``(query id, entries by key text)`` per finished decision, in order.
        self.finished: List[tuple] = []
        finish = self.node._finish_indexing

        def spied_finish(state, candidates, entries):
            self.finished.append((state.query_id, dict(entries)))
            finish(state, candidates, entries)

        self.node._finish_indexing = spied_finish
        self.node.candidate_table.update(self.entry(KNOWN, rate=5.0))

    def index(self, number: int, *keys) -> None:
        """An indexing decision of the node between ``keys`` and ``KNOWN``."""
        self.node._index_query(self.state(number), [*keys, KNOWN])

    def state(self, number: int) -> QueryState:
        return QueryState(
            query_id=f"node-0#{number}",
            owner="node-0",
            query=self.query,
            insertion_time=self.engine.now,
        )

    def entry(self, key, rate: float = 1.0, address=None) -> RicEntry:
        if address is None:
            address = self.engine.ring.owner_of_key(key.text).address
        return RicEntry(key.text, rate, address, self.engine.now)

    def reply(self, *entries: RicEntry) -> None:
        self.node._on_ric_reply(
            RicReplyMessage(request_id="by-hand", collected=entries),
            self.engine.now,
        )

    @property
    def finished_ids(self) -> List[str]:
        return [query_id for query_id, _ in self.finished]


class TestOneQuestionPerKey:
    def test_two_ops_with_the_same_unknown_key_post_one_request(self):
        h = Harness()
        h.index(1, K1)
        h.index(2, K1)
        (request,) = chains_started(h.posted)
        assert request.key_texts() == [K1.text]
        assert (h.node.ric_chains_started, h.node.ric_questions_joined) == (1, 1)
        assert [op.state.query_id for op in h.node._ric_waiters[K1.text]] == [
            "node-0#1", "node-0#2",
        ]
        h.engine.run()
        # One chain informed both decisions, and both queries went out.
        assert h.finished_ids == ["node-0#1", "node-0#2"]
        assert h.finished[0][1] == h.finished[1][1]
        sent = [m for m in h.posted if isinstance(m, IndexQueryMessage)]
        assert [m.state.query_id for m in sent] == ["node-0#1", "node-0#2"]
        assert_ric_path_idle(h.engine)

    def test_two_rewrites_of_one_tuple_arrival_share_one_chain(self, small_catalog):
        """The case the ledger is full of: one handler invocation triggers
        several stored queries whose rewrites have a candidate key in common.
        (Attribute-level rewrites give each rewrite its join attributes as
        candidates beside the shared value-level key; alone, that key would
        be no question at all.)"""
        engine = RJoinEngine(
            RJoinConfig(num_nodes=16, seed=7, strategy="rjoin",
                        allow_attribute_level_rewrites=True),
            catalog=small_catalog,
        )
        engine.submit(SQL)
        engine.submit("SELECT S.d, T.f FROM R, S, T WHERE R.b = S.c AND S.d = T.e")
        (home,) = [node for node in engine.nodes.values() if node.input_queries]
        assert len(home.input_queries) == 2
        before = home.ric_questions_joined
        posted = spy_on_posts(engine)
        engine.publish("R", (1, 10))
        shared = value_key("S", "c", 10).text
        asking = [r for r in chains_started(posted) if shared in r.key_texts()]
        assert [request.origin for request in asking] == [home.address]
        assert home.ric_questions_joined == before + 1
        evals = [m for m in posted if isinstance(m, EvalMessage)]
        assert [m.key.text for m in evals] == [shared, shared]
        assert_ric_path_idle(engine)

    def test_an_op_asks_only_the_keys_nobody_is_asking(self):
        h = Harness()
        h.index(1, K1)
        h.index(2, K1, K2)
        first, second = chains_started(h.posted)
        assert first.key_texts() == [K1.text]
        assert second.key_texts() == [K2.text]
        # Its own chain comes back first: it still waits for the other one.
        h.reply(h.entry(K2, rate=4.0))
        assert h.finished == []
        assert h.node._pending_ric[second.request_id].missing == 1
        about_k1 = h.entry(K1, rate=2.0)
        h.reply(about_k1)
        assert h.finished_ids == ["node-0#1", "node-0#2"]
        assert h.finished[1][1][K1.text] is about_k1
        assert h.finished[1][1][K2.text].rate == 4.0
        assert_ric_path_idle(h.engine)
        # The real replies, arriving now, find nobody waiting.
        h.engine.run()
        assert h.finished_ids == ["node-0#1", "node-0#2"]
        assert_ric_path_idle(h.engine)

    def test_ops_finish_as_their_last_key_resolves_then_by_registration(self):
        h = Harness()
        h.index(1, K1)
        h.index(2, K1, K2)
        h.index(3, K2)
        h.index(4, K1)
        h.index(5, K2, K3)
        assert [r.key_texts() for r in chains_started(h.posted)] == [
            [K1.text], [K2.text], [K3.text],
        ]
        assert h.node.ric_questions_joined == 4
        h.reply(h.entry(K2), h.entry(K1))
        assert h.finished_ids == ["node-0#3", "node-0#1", "node-0#2", "node-0#4"]
        h.reply(h.entry(K3))
        assert h.finished_ids[4:] == ["node-0#5"]
        assert_ric_path_idle(h.engine)

    def test_a_retracted_waiter_is_skipped_and_an_unawaited_reply_is_a_no_op(self):
        h = Harness()
        h.index(1, K1)
        h.index(2, K1)
        assert h.node.retract_query("node-0#1") == 1
        assert [op.state.query_id for op in h.node._pending_ric.values()] == [
            "node-0#2"
        ]
        h.reply(h.entry(K1))
        assert h.finished_ids == ["node-0#2"]
        assert_ric_path_idle(h.engine)
        posted = len(h.posted)
        late = h.entry(K1, rate=9.0)
        h.reply(late)
        assert len(h.posted) == posted and h.finished_ids == ["node-0#2"]
        assert_ric_path_idle(h.engine)
        # ...except for the candidate table, which learns from every reply.
        assert h.node.candidate_table.lookup(K1.text, h.engine.now) is late

    def test_a_dead_reporters_entry_ends_the_wait_but_is_not_used(self):
        h = Harness()
        h.index(1, K1, K2)
        h.reply(h.entry(K1, rate=7.0, address="node-gone"), h.entry(K2, rate=3.0))
        ((query_id, entries),) = h.finished
        assert set(entries) == {K2.text, KNOWN.text}
        assert h.node.candidate_table.lookup(K1.text, h.engine.now) is None
        # Unreported counts as rate 0.0, the lowest: K1 is chosen, and routed
        # (no address to take the one-hop shortcut to).
        (sent,) = [m for m in h.posted if isinstance(m, IndexQueryMessage)]
        assert sent.key == K1
        assert K1.text not in [entry.key_text for entry in sent.state.ric_info]
        assert_ric_path_idle(h.engine)

    def test_a_stale_entry_is_asked_again_once_and_joined_by_the_rest(self):
        h = Harness(ric_freshness=3.0)
        h.index(1, K1)
        h.engine.run()
        assert h.finished_ids == ["node-0#1"]
        h.engine.tick(10.0)
        h.node.candidate_table.update(h.entry(KNOWN, rate=5.0))  # kept fresh
        h.index(2, K1)
        h.index(3, K1)
        assert len(chains_started(h.posted)) == 2
        assert h.node.ric_questions_joined == 1
        h.engine.run()
        assert h.finished_ids == ["node-0#1", "node-0#2", "node-0#3"]
        # Fresh again: the next decision needs no message at all.
        posted = len(h.posted)
        h.index(4, K1)
        assert h.finished_ids[-1] == "node-0#4"
        assert [type(m) for m in h.posted[posted:]] == [IndexQueryMessage]
        assert_ric_path_idle(h.engine)


class TestOnlyWhatCanChangeTheChoice:
    """A question is a request and a reply: it is asked if its answer could
    make ``choose`` pick another key, and not otherwise."""

    low, high = value_key("S", "c", 5), value_key("S", "c", 6)

    @pytest.mark.parametrize("runtime", RUNTIMES)
    def test_a_lone_candidate_is_sent_at_once_and_asks_nothing(
        self, runtime, small_catalog
    ):
        engine = RJoinEngine(
            RJoinConfig(num_nodes=16, seed=7, strategy="rjoin", runtime=runtime),
            catalog=small_catalog,
        )
        handle = engine.submit("SELECT R.a, S.d FROM R, S WHERE R.b = S.c")
        tables = [node.candidate_table for node in engine.nodes.values()]
        lookups = sum(table.hits + table.misses for table in tables)
        posted = spy_on_posts(engine)
        engine.publish("R", (1, 10))
        # The rewrite can wait under S.c = 10 and nowhere else.
        kinds = Counter(type(message) for message in posted)
        assert kinds[EvalMessage] == 1
        assert kinds[RicRequestMessage] == kinds[RicReplyMessage] == 0
        (sent,) = [m for m in posted if isinstance(m, EvalMessage)]
        assert sent.key == value_key("S", "c", 10)
        # No lookup either, so no unknown key met: nothing to count as spared.
        assert sum(table.hits + table.misses for table in tables) == lookups
        assert engine.metrics_summary()["ric_questions_spared"] == 0
        assert_ric_path_idle(engine)
        engine.publish("S", (10, 99))
        assert handle.values() == [(1, 99)]
        engine.close()

    def test_a_lone_candidate_of_an_input_query_likewise(self):
        h = Harness()
        h.node._index_query(h.state(1), [K1])
        assert [type(m) for m in h.posted] == [IndexQueryMessage]
        assert h.posted[0].key == K1 and h.posted[0].state.ric_info == ()
        assert h.finished == [] and h.node.ric_questions_spared == 0
        assert_ric_path_idle(h.engine)

    def test_a_quiet_known_key_spares_a_worse_unknown_and_asks_a_better_one(self):
        """``high`` stands at 0.0: an attribute-level key loses any tie with
        it, ``low`` would win one — so ``low`` is asked and ``K1`` is not, and
        the choice is what the full round of answers would have made it."""
        h = Harness()
        low, high = self.low, self.high
        h.node.candidate_table.update(h.entry(high, rate=0.0))
        h.node._index_query(h.state(1), [K1, high, low])
        (request,) = chains_started(h.posted)
        assert request.key_texts() == [low.text]
        assert set(h.node._ric_waiters) == {low.text}
        assert h.node.ric_questions_spared == 1
        h.reply(h.entry(low, rate=0.0))
        ((_, entries),) = h.finished
        assert set(entries) == {high.text, low.text}
        (sent,) = [m for m in h.posted if isinstance(m, IndexQueryMessage)]
        assert sent.key == low
        assert sorted(e.key_text for e in sent.state.ric_info) == [low.text, high.text]
        assert_ric_path_idle(h.engine)

    def test_a_busy_answer_leaves_the_quiet_known_key_chosen(self):
        h = Harness()
        low, high = self.low, self.high
        h.node.candidate_table.update(h.entry(high, rate=0.0))
        h.node._index_query(h.state(1), [K1, high, low])
        h.reply(h.entry(low, rate=3.0))
        (sent,) = [m for m in h.posted if isinstance(m, IndexQueryMessage)]
        assert sent.key == high
        assert_ric_path_idle(h.engine)

    def test_with_nothing_worth_asking_the_decision_is_made_at_once(self):
        h = Harness()
        h.node.candidate_table.update(h.entry(self.low, rate=0.0))
        h.node._index_query(h.state(1), [K1, K2, self.low])
        assert [type(m) for m in h.posted] == [IndexQueryMessage]
        assert h.posted[0].key == self.low
        assert h.node.ric_questions_spared == 2
        assert (h.node.ric_chains_started, h.node.ric_questions_joined) == (0, 0)
        assert_ric_path_idle(h.engine)

    def test_a_busy_known_key_spares_nothing(self):
        h = Harness()
        h.index(1, K1, self.low)  # KNOWN stands at 5.0: either may be quieter
        (request,) = chains_started(h.posted)
        assert request.key_texts() == [K1.text, self.low.text]
        assert h.node.ric_questions_spared == 0
        h.engine.run()
        assert_ric_path_idle(h.engine)

    def test_a_decision_that_recurs_reads_its_candidates_again_together(self):
        """Both keys are first used together, so both come due at the same
        decision (``REASK_FROM``) and one chain reads them at one time."""
        h = Harness()
        h.node._index_query(h.state(0), [K1, K2])
        h.engine.run()
        for number in range(1, REASK_FROM):
            h.node._index_query(h.state(number), [K1, K2])
        assert len(chains_started(h.posted)) == 1
        assert len(h.finished) == REASK_FROM
        h.engine.tick(5.0)
        h.node._index_query(h.state(REASK_FROM), [K1, K2])
        again = chains_started(h.posted)[1]
        assert again.key_texts() == [K1.text, K2.text]
        assert len(h.finished) == REASK_FROM
        h.engine.run()
        _, entries = h.finished[-1]
        assert {entry.observed_at for entry in entries.values()} != {
            entry.observed_at for entry in h.finished[0][1].values()
        }
        assert h.node.ric_chains_started == 2
        assert_ric_path_idle(h.engine)


class TestOneHop:
    """A reporter's arc reaches the asker; the next question uses it."""

    def keys_of_one_owner(self, h: Harness, count: int):
        """``count`` keys that one node other than the harness's owns."""
        by_owner: Dict[str, list] = {}
        for value in range(1000):
            key = value_key("S", "c", value)
            owner = h.engine.ring.owner_of_key(key.text).address
            if owner == h.node.address:
                continue
            by_owner.setdefault(owner, []).append(key)
            if len(by_owner[owner]) == count:
                return owner, by_owner[owner]
        raise AssertionError("no node owns enough keys")

    def test_the_first_question_is_routed_the_next_to_that_owner_goes_direct(self):
        h = Harness()
        routed, direct = spy_on_requests(h.engine)
        owner, (first, second) = self.keys_of_one_owner(h, 2)
        h.index(1, first)
        assert [r.target_key for r in routed] == [first] and not direct
        h.engine.run()
        arc = h.engine.ring.arc_of(owner)
        assert h.finished[0][1][first.text].arc is arc
        assert h.node.candidate_table._arc_of[owner] == arc
        # The query itself left on the arc its chain had just brought back.
        assert h.node.arc_sends_direct == 1
        h.index(2, second)
        assert [(r.target_key, to) for r, to in direct] == [(second, owner)]
        assert len(routed) == 1 and h.node.arc_sends_direct == 2
        h.engine.run()
        assert h.finished_ids == ["node-0#1", "node-0#2"]
        assert h.engine.metrics_summary()["arc_sends_misdirected"] == 0
        assert_ric_path_idle(h.engine)

    def test_a_chain_is_forwarded_on_the_forwarders_own_arcs(self):
        """Each hop of a chain is sent by another node, from what *it* knows."""
        h = Harness()
        owner, (first, second, third) = self.keys_of_one_owner(h, 3)
        # The owner of K1 once asked ``first`` itself; node-0 never did.
        forwarder = h.engine.nodes[h.engine.ring.owner_of_key(K1.text).address]
        assert forwarder.address not in (owner, h.node.address)
        forwarder.candidate_table.update(h.entry(KNOWN, rate=5.0))
        forwarder._index_query(h.state(1), [first, KNOWN])
        h.engine.run()
        routed, direct = spy_on_requests(h.engine)
        sent_direct = forwarder.arc_sends_direct
        h.index(2, K1, second)
        h.engine.run()
        assert [r.target_key for r in routed] == [K1]
        assert [(r.target_key, to) for r, to in direct] == [(second, owner)]
        # The forwarder sent the second hop direct; node-0 only, at the end,
        # the query the chain was for.
        assert (h.node.arc_sends_direct, forwarder.arc_sends_direct) == (
            1, sent_direct + 1,
        )
        # ...and the reply taught node-0 both reporters' arcs.
        assert set(h.node.candidate_table._arc_of) == {forwarder.address, owner}
        h.index(3, third)
        assert direct[-1] == (direct[-1][0], owner) and len(routed) == 1
        h.engine.run()
        assert_ric_path_idle(h.engine)

    def test_piggy_backed_entries_teach_arcs_too(self):
        h = Harness()
        owner, (first, second) = self.keys_of_one_owner(h, 2)
        arc = h.engine.ring.arc_of(owner)
        state = h.state(1)
        state.ric_info = (RicEntry(first.text, 2.0, owner, h.engine.now, arc),)
        h.node._adopt_ric_info(state)
        identifier = h.engine.space.hash_key(second.text)
        assert h.node.candidate_table.owner_of(identifier) == owner
        # ...and are the table's from then on, not the state's.
        assert state.ric_info == ()
        assert h.node.candidate_table.lookup(first.text, h.engine.now).rate == 2.0

    def test_a_request_for_a_key_of_ones_own_is_a_local_delivery_either_way(self):
        h = Harness()
        first, second = [
            key for key in (value_key("S", "c", value) for value in range(1000))
            if h.engine.ring.owner_of_key(key.text).address == h.node.address
        ][:2]
        messages = h.engine.traffic.total_messages
        h.index(1, first)  # routed: a path of no hops
        assert h.node.arc_sends_direct == 0
        h.engine.run()
        # ...and the query it was asked for: on the node's own arc, by now.
        assert h.node.arc_sends_direct == 1
        h.index(2, second)
        assert h.node.arc_sends_direct == 2
        h.engine.run()
        assert h.node.arc_sends_direct == 3
        assert h.finished_ids == ["node-0#1", "node-0#2"]
        # Asked, answered and the queries sent on without a transmission.
        assert h.engine.traffic.total_messages == messages
        assert_ric_path_idle(h.engine)


def busy_engine(runtime: str = "sim", seed: int = 5, **config):
    """Many queries per attribute key: their rewrites share candidate keys."""
    generator = WorkloadGenerator(
        WorkloadSpec(num_relations=4, attributes_per_relation=2, value_domain=8,
                     join_arity=3, seed=seed)
    )
    engine = RJoinEngine(
        RJoinConfig(num_nodes=16, runtime=runtime, strategy="rjoin", seed=seed,
                    **config)
    )
    engine.register_catalog(generator.catalog)
    return engine, generator


class TestCounters:
    def test_asked_joined_and_spared_are_every_unknown_key_a_decision_met(self):
        """A decision looks its candidates up when it has more than one; each
        it does not find is asked, waited for on a chain in flight, or spared
        because its answer could not matter — and nothing else."""
        engine, generator = busy_engine(observability="on")
        posted = spy_on_posts(engine)
        for query in generator.generate_queries(40):
            engine.submit(query)
        for generated in generator.generate_tuples(60):
            engine.publish(generated.relation, generated.values)
        chains = chains_started(posted)
        asked = sum(len(request.key_texts()) for request in chains)
        summary = engine.metrics_summary()
        joined = int(summary["ric_questions_joined"])
        spared = int(summary["ric_questions_spared"])
        unknown = sum(node.candidate_table.misses for node in engine.nodes.values())
        assert joined > 0 and asked > 0 and spared > 0
        assert asked + joined + spared == unknown
        assert spared == sum(
            node.ric_questions_spared for node in engine.nodes.values()
        )
        assert summary["ric_chains_started"] == len(chains)
        assert summary["ric_chains_lost"] == 0
        assert summary["ric_chains_started"] == sum(
            node.ric_chains_started for node in engine.nodes.values()
        )
        # The same, read off the telemetry: every question sent was delivered
        # once, every chain replied once, and the joined and the spared ones —
        # deliveries that did not happen — sit on the spans whose handlers
        # joined or spared them.
        by_phase = engine.obs.registry.counter("ric_chain").by_label
        assert by_phase == {
            "request": asked, "reply": len(chains), "joined": joined,
            "spared": spared,
        }
        assert sum(span.ric_joined for span in engine.obs.spans) == joined
        assert sum(span.ric_spared for span in engine.obs.spans) == spared
        assert_ric_path_idle(engine)
        engine.close()

    def test_on_a_static_ring_a_request_is_direct_or_routed_and_never_misdirected(self):
        engine, generator = busy_engine(observability="on")
        routed, direct = spy_on_requests(engine)
        for query in generator.generate_queries(40):
            engine.submit(query)
        for generated in generator.generate_tuples(60):
            engine.publish(generated.relation, generated.values)
        summary = engine.metrics_summary()
        registry, spans = engine.obs.registry, engine.obs.spans
        assert summary["arc_sends_misdirected"] == 0
        assert registry.counter("arc_misdirected").value == 0
        # What the nodes counted as they sent is what the spans saw arrive,
        # kind by kind, and every hop of every span is a message charged.
        by_kind = registry.counter("arc_direct").by_label
        assert by_kind["RicRequestMessage"] == len(direct) > 0
        assert sum(by_kind.values()) == summary["arc_sends_direct"]
        assert Counter(span.name for span in spans if span.arc_direct) == by_kind
        assert sum(span.hops for span in spans) == summary["total_messages"]
        # Every request posted was asked of one node, once, and answered there.
        posted = len(direct) + len(routed)
        assert registry.counter("ric_chain").by_label["request"] == posted
        for request, destination in direct:
            owner = engine.ring.owner_of_key(request.target_key.text)
            assert destination == owner.address
        # The mechanism does something: once the tables are warm, most
        # questions travel one hop.
        assert len(direct) > len(routed)
        assert summary["stale_one_hop_attempts"] == 0
        engine.close()

    def test_counters_of_a_departed_node_stay_in_the_summary(self):
        engine, generator = busy_engine()
        for query in generator.generate_queries(20):
            engine.submit(query)
        before = engine.metrics_summary()
        victim = max(engine.nodes.values(), key=lambda node: node.ric_chains_started)
        assert victim.ric_chains_started > 0
        engine.crash_node(victim.address)
        after = engine.metrics_summary()
        for name in ("ric_chains_started", "ric_questions_joined",
                     "ric_questions_spared", "ric_chains_lost"):
            assert after[name] == before[name]
        engine.close()


class TestLostChain:
    """A crash that destroys a chain hands its keys back to the origin."""

    @pytest.mark.parametrize("runtime", RUNTIMES)
    def test_a_chain_lost_at_its_first_hop_is_asked_again(self, runtime, small_catalog):
        engine = RJoinEngine(
            RJoinConfig(num_nodes=16, seed=7, strategy="rjoin", runtime=runtime),
            catalog=small_catalog,
        )
        reference = ReferenceEngine(small_catalog)
        posted = spy_on_posts(engine)
        first_hop = engine.ring.owner_of_key(K1.text).address
        owner = next(a for a in engine.ring.addresses if a != first_hop)
        handle = engine.submit(SQL, owner=owner, process=False)
        reference.submit(handle.query, query_id=handle.query_id,
                         insertion_time=handle.insertion_time)
        (lost,) = chains_started(posted)
        assert lost.target_key == K1
        origin = engine.nodes[owner]
        assert set(origin._ric_waiters) == set(lost.key_texts())

        engine.crash_node(first_hop)
        assert engine.api.dropped_messages == 1
        assert origin.ric_chains_lost == 1
        _, again = chains_started(posted)
        assert again.key_texts() == lost.key_texts()
        assert again.request_id != lost.request_id
        assert set(origin._ric_waiters) == set(again.key_texts())
        assert len(origin._pending_ric) == 1

        engine.run()
        assert_ric_path_idle(engine)
        (sent,) = [m for m in posted if isinstance(m, IndexQueryMessage)]
        assert sent.state.query_id == handle.query_id
        for relation, values in [("R", (1, 10)), ("S", (10, 20)), ("T", (20, 99))]:
            reference.publish_tuple(engine.publish(relation, values))
        assert handle.values() == reference.answers(handle.query_id) != []
        assert engine.metrics_summary()["ric_chains_lost"] == 1.0
        engine.close()

    def test_keys_reported_along_a_lost_chain_are_handed_back_too(self, small_catalog):
        engine = RJoinEngine(
            RJoinConfig(num_nodes=16, seed=7, strategy="rjoin"), catalog=small_catalog
        )
        posted = spy_on_posts(engine)
        origin = engine.nodes["node-0"]
        engine.submit(SQL, owner="node-0", process=False)
        (head,) = chains_started(posted)
        # Walk the chain until it is in flight with something collected,
        # towards a node other than its origin; that node crashes.
        while True:
            assert engine.kernel.step()
            hop = posted[-1]
            assert isinstance(hop, RicRequestMessage)
            next_hop = engine.ring.owner_of_key(hop.target_key.text).address
            if next_hop != "node-0":
                break
        assert hop.collected and set(origin._ric_waiters) == set(head.key_texts())
        engine.crash_node(next_hop)
        again = chains_started(posted)[-1]
        assert sorted(again.key_texts()) == sorted(head.key_texts())
        engine.run()
        assert_ric_path_idle(engine)
        assert [type(m) for m in posted].count(IndexQueryMessage) == 1

    def test_an_op_also_waiting_for_a_live_chain_starts_over_exactly_once(self):
        h = Harness()
        h.index(1, K1)
        h.index(2, K1, K2)
        lost, live = chains_started(h.posted)
        h.node.ric_chain_lost(lost)
        # Both decisions start over: the first asks K1 again, the second
        # waits with it — and with the chain still asking K2.
        assert [r.key_texts() for r in chains_started(h.posted)[2:]] == [[K1.text]]
        waiting = {
            key_text: [op.state.query_id for op in ops if op.label in h.node._pending_ric]
            for key_text, ops in h.node._ric_waiters.items()
        }
        assert waiting == {
            K1.text: ["node-0#1", "node-0#2"], K2.text: ["node-0#2"],
        }
        assert len(h.node._pending_ric) == 2
        h.engine.run()
        assert sorted(h.finished_ids) == ["node-0#1", "node-0#2"]
        assert_ric_path_idle(h.engine)

    def test_a_lost_chain_nobody_waits_for_changes_nothing(self):
        h = Harness()
        h.index(1, K1)
        (request,) = chains_started(h.posted)
        h.engine.run()
        posted = len(h.posted)
        h.node.ric_chain_lost(request)
        assert len(h.posted) == posted and h.finished_ids == ["node-0#1"]
        assert_ric_path_idle(h.engine)

    @pytest.mark.parametrize("seed", [2, 4])
    @pytest.mark.parametrize("runtime", RUNTIMES)
    def test_crashes_under_load_leave_no_pending_op_behind(
        self, runtime, seed, monkeypatch
    ):
        """The bug on the books since membership landed: a crash that destroyed
        a ``RicRequestMessage`` left its op in ``_pending_ric`` forever (4 ops
        on either seed here), its query state never indexed.  ``sim`` fires
        the crashes mid-drain; ``asyncio`` fires timers between message waves,
        so there the scenario loses nothing and must simply stay clean.

        The crashes fire 2–4 time units after a publish (2–6 until tuples
        travelled on arcs): a tuple now reaches its keys in one hop, the
        chains it sets off are in flight sooner, and with the later crashes
        seed 2 no longer happened to destroy one."""
        handed_back: Dict[int, str] = {}
        sent = set()
        chain_lost, send_query = RJoinNode.ric_chain_lost, RJoinNode._send_query

        def spied_chain_lost(node, request):
            before = dict(node._pending_ric)
            chain_lost(node, request)
            for label, op in before.items():
                if label not in node._pending_ric:
                    handed_back[id(op.state)] = node.address

        def spied_send_query(node, state, key, known_address=None):
            sent.add(id(state))
            send_query(node, state, key, known_address)

        monkeypatch.setattr(RJoinNode, "ric_chain_lost", spied_chain_lost)
        monkeypatch.setattr(RJoinNode, "_send_query", spied_send_query)

        generator = WorkloadGenerator(
            WorkloadSpec(num_relations=6, attributes_per_relation=3, value_domain=30,
                         join_arity=3, seed=seed)
        )
        engine = RJoinEngine(
            RJoinConfig(num_nodes=32, runtime=runtime, strategy="rjoin", seed=seed)
        )
        engine.register_catalog(generator.catalog)
        destroyed: List[object] = []
        owed: List[RicRequestMessage] = []  # chains whose origin outlived them
        extract = engine.transport.extract_inbound

        def spied_extract(address):
            envelopes = extract(address)
            destroyed.extend(envelopes)
            owed.extend(
                envelope.message
                for envelope in envelopes
                if isinstance(envelope.message, RicRequestMessage)
                and envelope.message.origin in engine.nodes
            )
            return envelopes

        engine.transport.extract_inbound = spied_extract
        for query in generator.generate_queries(80):
            engine.submit(query, process=False)
        engine.run()
        tuples = generator.generate_tuples(80)
        for generated in tuples[:30]:
            engine.publish(generated.relation, generated.values)
        for index, generated in enumerate(tuples[30:]):
            if index % 2 == 0:
                engine.schedule_membership_op(
                    "crash", delay=2 + index % 3, min_nodes=8
                )
            engine.publish(generated.relation, generated.values)
        engine.run()

        assert len(engine.nodes) == 8
        assert_ric_path_idle(engine)
        summary = engine.metrics_summary()
        if runtime == "sim":
            assert owed and handed_back
        # Every destroyed chain came back to its origin, unless that was gone.
        assert summary["ric_chains_lost"] == len(owed)
        # Every op handed back left as an Eval / IndexQuery, unless its node
        # crashed in turn before the fresh chain came home.
        for state_id, address in handed_back.items():
            assert state_id in sent or address not in engine.nodes
        # The destroyed envelopes are still counted as dropped.
        assert summary["dropped_messages"] >= sum(
            envelope.weight for envelope in destroyed
        ) - summary["answers_rerouted"]
        assert summary["stale_one_hop_attempts"] == 0
        engine.close()


# ---------------------------------------------------------------------------
# property: bags, idleness at quiescence, one chain per key in flight
# ---------------------------------------------------------------------------
def in_flight_questions(engine: RJoinEngine) -> Dict[str, Counter]:
    """Per origin node, the key texts its chains in flight are asking.

    A key counts from the moment its chain leaves until the reply is handled:
    it travels in ``target_key`` / ``pending``, then in ``collected``.
    """
    asking: Dict[str, Counter] = {}
    for _, args in engine.kernel.pending():
        if not args or not hasattr(args[0], "message"):
            continue
        message = args[0].message
        if isinstance(message, RicRequestMessage):
            origin = message.origin
            texts = message.key_texts()
        elif isinstance(message, RicReplyMessage):
            origin = args[0].destination
            texts = [e.key_text for e in message.collected]
        else:
            continue
        asking.setdefault(origin, Counter()).update(texts)
    return asking


def assert_one_chain_per_key(engine: RJoinEngine) -> None:
    asking = in_flight_questions(engine)
    for address, node in engine.nodes.items():
        questions = asking.get(address, Counter())
        assert set(questions.values()) <= {1}, (address, questions)
        assert set(questions) == set(node._ric_waiters), address


@settings(max_examples=24, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    runtime=st.sampled_from(RUNTIMES),
    num_queries=st.integers(min_value=6, max_value=24),
    num_tuples=st.integers(min_value=10, max_value=40),
    jitter=st.sampled_from([0.25, 0.5, 1.5]),
    freshness=st.sampled_from([None, 6.0]),
)
def test_single_flight_keeps_the_bags_and_never_doubles_a_question(
    seed, runtime, num_queries, num_tuples, jitter, freshness
):
    engine, generator = busy_engine(
        runtime, seed, delay_jitter=jitter, ric_freshness=freshness
    )
    reference = ReferenceEngine(generator.catalog)

    def drain() -> None:
        if runtime == "sim":
            assert_one_chain_per_key(engine)
            while engine.kernel.step():
                assert_one_chain_per_key(engine)
        engine.run()
        assert_ric_path_idle(engine)

    try:
        handles = []
        for query in generator.generate_queries(num_queries):
            handle = engine.submit(query, process=False)
            reference.submit(query, query_id=handle.query_id,
                             insertion_time=handle.insertion_time)
            handles.append(handle)
            if len(handles) % 4 == 0:  # several submissions share a drain
                drain()
        drain()
        for generated in generator.generate_tuples(num_tuples):
            tup = engine.publish(generated.relation, generated.values, process=False)
            reference.publish_tuple(tup)
            drain()
        for handle in handles:
            assert sorted(map(repr, handle.values())) == sorted(
                map(repr, reference.answers(handle.query_id))
            )
        assert engine.metrics_summary()["ric_chains_lost"] == 0
    finally:
        engine.close()
