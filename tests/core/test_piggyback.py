"""The piggy-back of Section 7, thin: a query carries what its last indexing
decision compared, and only on the wire.

``RJoinNode._finish_indexing`` attaches the entries the decision used — at
most one per candidate, none for a lone candidate — and
``RJoinNode._adopt_ric_info`` moves them into the receiver's candidate table.
A derived state inherits none and a stored one keeps none, so the table and
the pending operations are the only places a node holds RIC entries, and the
only ones a departure has to clean (``RJoinNode.forget_address``).
"""

from __future__ import annotations

from typing import List

import pytest

from repro.core.engine import RJoinEngine
from repro.core.protocol import EvalMessage, IndexQueryMessage, QueryState
from repro.core.query_table import QueryTable
from repro.core.reference import ReferenceEngine
from repro.core.strategy import input_query_candidates, rewritten_query_candidates
from tests.core.test_ric_path import busy_engine

pytestmark = pytest.mark.hard_timeout(300)

RUNTIMES = ("sim", "asyncio")


def stored_states(engine: RJoinEngine):
    for node in engine.nodes.values():
        for table in (node.input_queries, node.rewritten_queries):
            for _, records in table.items():
                for record in records:
                    yield record.state


def names_of(engine: RJoinEngine, address: str) -> List[str]:
    """Where a live node still holds RIC state naming ``address``."""
    found = []
    for node in engine.nodes.values():
        table = node.candidate_table
        if address in table._arc_of or address in table._arc_owners:
            found.append(f"{node.address}: arc")
        if any(entry.address == address for entry in table._entries.values()):
            found.append(f"{node.address}: entry")
        for op in node._pending_ric.values():
            if any(entry.address == address for entry in op.known.values()):
                found.append(f"{node.address}: {op.label}")
    return found


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_a_query_carries_what_its_last_decision_compared_and_keeps_none(runtime):
    """Caught as they are posted: the entries are about the decision's own
    candidate keys, one each at most, and a lone candidate brings none.
    Looked at again once delivered, and where they are stored: none left."""
    engine, generator = busy_engine(runtime)
    sizes: List[int] = []
    sent: List[QueryState] = []
    send, send_direct = engine.api.send, engine.api.send_direct

    def check(message) -> None:
        if not isinstance(message, (EvalMessage, IndexQueryMessage)):
            return
        state = message.state
        candidates = (
            input_query_candidates(state.query)
            if state.is_input
            else rewritten_query_candidates(
                state.query, engine.config.allow_attribute_level_rewrites
            )
        )
        texts = [entry.key_text for entry in state.ric_info]
        assert len(set(texts)) == len(texts) <= len(candidates)
        assert set(texts) <= {key.text for key in candidates}
        if len(candidates) == 1:
            assert texts == []
        sizes.append(len(texts))
        sent.append(state)

    def spied_send(sender, message, *args, **kwargs):
        check(message)
        return send(sender, message, *args, **kwargs)

    def spied_send_direct(sender, message, *args, **kwargs):
        check(message)
        return send_direct(sender, message, *args, **kwargs)

    engine.api.send, engine.api.send_direct = spied_send, spied_send_direct
    try:
        for query in generator.generate_queries(30):
            engine.submit(query)
        for generated in generator.generate_tuples(50):
            engine.publish(generated.relation, generated.values)
        # The piggy-back is in use, and thin.
        assert 0 in sizes and max(sizes) > 1
        # The receivers took what there was to take...
        assert all(state.ric_info == () for state in sent)
        # ...and nothing stored holds an entry, however it came to be stored.
        stored = list(stored_states(engine))
        assert stored and all(state.ric_info == () for state in stored)
    finally:
        engine.close()


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("departure", ["leave", "crash"])
def test_a_departure_is_forgotten_without_a_walk_over_the_stored_records(
    runtime, departure, monkeypatch
):
    """The tables and the pending operations are all there is to clean: the
    stored records are not looked at, and what is in flight with an entry of
    the departed aboard is stopped at the door (``_adopt_ric_info``)."""
    engine, generator = busy_engine(runtime, seed=11)
    reference = ReferenceEngine(generator.catalog)
    handles = []
    try:
        for query in generator.generate_queries(30):
            handle = engine.submit(query, owner="node-0")
            reference.submit(query, query_id=handle.query_id,
                             insertion_time=handle.insertion_time)
            handles.append(handle)
        tuples = generator.generate_tuples(70)
        for generated in tuples[:40]:
            reference.publish_tuple(
                engine.publish(generated.relation, generated.values)
            )

        def reported(address: str) -> int:
            return sum(
                entry.address == address
                for node in engine.nodes.values()
                for entry in node.candidate_table._entries.values()
            )

        victim = max((a for a in engine.nodes if a != "node-0"), key=reported)
        assert reported(victim) > 0 and names_of(engine, victim)
        # Queries in flight, some with entries of the victim aboard.
        for generated in tuples[40:45]:
            reference.publish_tuple(
                engine.publish(generated.relation, generated.values, process=False)
            )
        if runtime == "sim":
            for _ in range(40):
                engine.kernel.step()

        walks = []
        items = QueryTable.items
        monkeypatch.setattr(
            QueryTable, "items", lambda table: walks.append(table) or items(table)
        )
        if departure == "leave":
            engine.remove_node(victim, graceful=True)
        else:
            engine.crash_node(victim)
        monkeypatch.undo()
        assert walks == []
        assert names_of(engine, victim) == []
        engine.run()
        assert names_of(engine, victim) == []
        for generated in tuples[45:]:
            reference.publish_tuple(
                engine.publish(generated.relation, generated.values)
            )
        assert names_of(engine, victim) == []
        assert all(state.ric_info == () for state in stored_states(engine))
        assert engine.metrics_summary()["stale_one_hop_attempts"] == 0
        if departure == "leave":  # a crash may take stored state along
            for handle in handles:
                assert sorted(map(repr, handle.values())) == sorted(
                    map(repr, reference.answers(handle.query_id))
                )
            assert sum(handle.count for handle in handles) > 0
    finally:
        engine.close()
