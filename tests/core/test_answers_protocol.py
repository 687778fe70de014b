"""Tests for answer handles and protocol message/state objects."""

from repro.core.answers import Answer, QueryHandle
from repro.core.keys import value_key
from repro.core.protocol import (
    AnswerMessage,
    EvalMessage,
    IndexQueryMessage,
    NewTupleMessage,
    QueryState,
    RicReplyMessage,
    RicRequestMessage,
)
from repro.core.rewriting import QueryShape
from repro.core.ric import RicEntry
from repro.core.windows import WindowState
from repro.data.schema import RelationSchema
from repro.data.tuples import Tuple
from repro.sql.parser import parse_query


def make_state(is_input=True):
    query = parse_query("SELECT R.a FROM R, S WHERE R.b = S.c")
    return QueryState(
        query_id="n1#1",
        owner="n1",
        query=query,
        insertion_time=3.0,
        is_input=is_input,
    )


class TestQueryHandle:
    def test_collection_and_accessors(self):
        handle = QueryHandle(
            query_id="n1#1",
            query=parse_query("SELECT R.a FROM R"),
            owner="n1",
            insertion_time=0.0,
        )
        assert handle.count == 0
        assert handle.latest() is None
        handle.add_answer((1,), (1.0, 2.0, "x"))
        handle.add_answer((1,), (1.0, 2.0, "x"))
        handle.add_answer((2,), (1.0, 3.0, "y"))
        assert handle.count == 3
        assert handle.values() == [(1,), (1,), (2,)]
        assert handle.distinct_values() == {(1,), (2,)}
        assert handle.latest() == Answer("n1#1", (2,), 1.0, 3.0, "y")
        assert handle.answers[0] == Answer("n1#1", (1,), 1.0, 2.0, "x")


class TestQueryState:
    def test_derive_marks_rewritten_and_accumulates(self):
        state = make_state()
        state.ric_info = (RicEntry("k", 1.0, "n2", 0.0),)
        new_query = parse_query("SELECT R.a FROM R", validate=False)
        shape = QueryShape()
        derived = state.derive(new_query, WindowState(1, 1), shape)
        assert not derived.is_input
        assert derived.consumed == 1
        assert derived.query is new_query
        assert derived.shape is shape is not state.shape
        # A child carries none of its parent's RIC entries: it will be
        # indexed under other keys, and piggy-backs what *its* decision learns.
        assert derived.ric_info == ()
        assert derived.derive(new_query, None, shape).consumed == 2
        assert derived.query_id == state.query_id
        assert derived.insertion_time == state.insertion_time
        # the parent state is untouched
        assert state.is_input and state.consumed == 0 and len(state.ric_info) == 1

    def test_distinct_flag_follows_query(self):
        query = parse_query("SELECT DISTINCT R.a FROM R, S WHERE R.b = S.c")
        state = QueryState("q", "n", query, 0.0)
        assert state.distinct


class TestProtocolMessages:
    def test_new_tuple_message_level(self):
        schema = RelationSchema("R", ["a"])
        tup = Tuple.from_schema(schema, (1,))
        msg = NewTupleMessage(tuple=tup, key=value_key("R", "a", 1), publisher="n0")
        assert msg.level == "value"
        assert msg.kind == "NewTupleMessage"

    def test_message_ids_unique_across_types(self):
        state = make_state()
        key = value_key("R", "a", 1)
        messages = [
            IndexQueryMessage(state=state, key=key),
            EvalMessage(state=state, key=key),
            RicRequestMessage(request_id="r", origin="n", target_key=key),
            RicReplyMessage(request_id="r"),
            AnswerMessage(answers=[("q", [(1,)])], produced_at=0.0, producer="n"),
        ]
        ids = [message.message_id for message in messages]
        assert len(set(ids)) == len(ids)

    def test_ric_request_defaults(self):
        key = value_key("R", "a", 1)
        msg = RicRequestMessage(request_id="r", origin="n", target_key=key)
        assert msg.pending == ()
        assert msg.collected == ()
