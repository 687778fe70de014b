"""The protocol, checked by running it.

Three statements about ``core/protocol.py`` and ``core/node.py`` that no
single test of a feature makes:

* every declared message kind has exactly one handler in
  :data:`~repro.core.node.DISPATCH`, and a kind without one fails its
  delivery loudly instead of vanishing;
* what each handler (and each engine operation) may send is written down
  in :data:`EMITS`, and a run through submit, publish, crash, join, leave
  and ``remove_query`` sends nothing else: every span edge, the parent
  span's name to the child span's, is in the table;
* the same run charges every transmission it posts (``tests/traffic.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.core import protocol
from repro.core.config import RJoinConfig
from repro.core.engine import RJoinEngine
from repro.core.node import DISPATCH
from repro.errors import EngineError
from repro.net.messages import Message
from repro.workload.generator import WorkloadGenerator, WorkloadSpec
from tests.traffic import PostedTraffic

#: Kinds sent to the owner of an identifier (``RJoinNode._route``).  Before
#: any handler runs, ``handle_envelope`` passes such a message on through the
#: ring when it came in one hop on a stale arc (``_pass_on``), and tells its
#: sender the arcs it knows (``_tell_arcs``).
KEYED = {"NewTupleMessage", "IndexQueryMessage", "EvalMessage", "RicRequestMessage"}

#: What each sender may emit, by span name: the engine operations' root spans
#: and one delivery span per message kind, read off the send sites.
EMITS = {
    # RJoinNode.publish_tuples.
    "publish": {"NewTupleMessage"},
    # RJoinNode.submit_query -> _index_query: the query itself, or the RIC
    # chain it waits for.
    "submit": {"IndexQueryMessage", "RicRequestMessage"},
    # RJoinEngine.remove_query's broadcast.
    "retract": {"RetractQueryMessage"},
    # _trigger: a rewritten query is indexed (or waits for a RIC chain), a
    # finished one answers.
    "NewTupleMessage": {"EvalMessage", "RicRequestMessage", "AnswerMessage"},
    # _settle: the input query is triggered by the tuples the ALTT holds.
    "IndexQueryMessage": {"EvalMessage", "RicRequestMessage", "AnswerMessage"},
    # _settle: the rewritten query is triggered by the stored tuples.
    "EvalMessage": {"EvalMessage", "RicRequestMessage", "AnswerMessage"},
    # _on_ric_request: forward the chain, or reply to its origin.
    "RicRequestMessage": {"RicRequestMessage", "RicReplyMessage"},
    # _on_ric_reply -> _finish_indexing -> _send_query.
    "RicReplyMessage": {"IndexQueryMessage", "EvalMessage"},
    "ArcNoticeMessage": set(),
    "AnswerMessage": set(),
    "RetractQueryMessage": set(),
}
for _kind in KEYED:
    EMITS[_kind] = EMITS[_kind] | {_kind, "ArcNoticeMessage"}

OPERATIONS = {"publish", "submit", "retract"}


def declared_messages():
    """The ``Message`` subclasses ``core/protocol.py`` declares."""
    return {
        value
        for value in vars(protocol).values()
        if isinstance(value, type)
        and issubclass(value, Message)
        and value.__module__ == protocol.__name__
    }


def test_the_dispatch_table_has_one_arm_per_declared_message():
    assert set(DISPATCH) == declared_messages()


def test_the_emission_table_names_every_kind_and_no_other():
    kinds = {cls.__name__ for cls in DISPATCH}
    assert set(EMITS) == kinds | OPERATIONS
    assert set().union(*EMITS.values()) <= kinds


@dataclass(slots=True)
class StrayMessage(Message):
    """A kind no handler is written for."""


@pytest.mark.hard_timeout(60)
@pytest.mark.parametrize("runtime", ["sim", "asyncio"])
def test_a_kind_without_a_handler_fails_its_delivery(runtime):
    engine = RJoinEngine(RJoinConfig(num_nodes=4, seed=7, runtime=runtime))
    try:
        sender, receiver = engine.ring.addresses[:2]
        engine.api.send_direct(sender, StrayMessage(), receiver)
        with pytest.raises(EngineError, match="StrayMessage"):
            engine.run()
    finally:
        engine.close()


def churned_run():
    """A seeded traced ``sim`` run through every engine operation and every
    kind of membership change; returns the engine and its traffic tap."""
    spec = WorkloadSpec(
        num_relations=4,
        attributes_per_relation=3,
        value_domain=3,
        join_arity=3,
        seed=1401,
    )
    generator = WorkloadGenerator(spec)
    engine = RJoinEngine(
        RJoinConfig(num_nodes=16, seed=7, delay_jitter=0.5, observability="on")
    )
    posted = PostedTraffic(engine.transport)
    engine.register_catalog(generator.catalog)
    queries = generator.generate_queries(6)
    rows = [(t.relation, t.values) for t in generator.generate_tuples(60)]
    handles = [engine.submit(query) for query in queries]
    for row in rows[:20]:
        engine.publish(*row)
    engine.crash_node(handles[0].owner)
    engine.add_node()
    for row in rows[20:40]:
        engine.publish(*row)
    engine.remove_node()
    engine.publish_batch(rows[40:])
    engine.remove_query(handles[1].query_id)
    return engine, posted


@pytest.fixture(scope="module")
def run():
    engine, posted = churned_run()
    yield engine, posted
    engine.close()


def test_every_span_edge_is_declared(run):
    engine, _ = run
    spans = engine.obs.spans
    by_id = {span.span_id: span for span in spans}
    edges = {
        (by_id[span.parent_id].name, span.name)
        for span in spans
        if span.parent_id is not None
    }
    undeclared = {edge for edge in edges if edge[1] not in EMITS[edge[0]]}
    assert not undeclared
    # The run is no empty check: every kind was delivered, and the RIC
    # round trip, the arc notices and the pass-ons all happened.
    assert {span.name for span in spans} >= {cls.__name__ for cls in DISPATCH}
    assert {
        ("RicReplyMessage", "IndexQueryMessage"),
        ("RicRequestMessage", "RicReplyMessage"),
        ("NewTupleMessage", "ArcNoticeMessage"),
        ("NewTupleMessage", "NewTupleMessage"),
        ("EvalMessage", "AnswerMessage"),
        ("retract", "RetractQueryMessage"),
    } <= edges


def test_every_posted_transmission_is_charged(run):
    engine, posted = run
    assert posted.charged > 0
    posted.assert_conserved(engine.traffic)
