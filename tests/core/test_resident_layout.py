"""Per-record state is slotted: no instance dict, and copies are faithful.

A node keeps tens of thousands of stored queries, tuples and answers at once,
and every message in flight is one more object; each class below is declared
with ``slots=True`` so an instance costs its fields and nothing else.  This
list is the one place that names them: an instance of each must have no
``__dict__``, and ``copy``, ``deepcopy`` and ``pickle`` must bring it back
equal to itself (frozen slotted dataclasses need the dataclass pickling
support to do that).
"""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.core import protocol
from repro.core.answers import Answer, AnswerLog
from repro.core.keys import IndexKey
from repro.core.protocol import (
    AnswerMessage,
    ArcNoticeMessage,
    EvalMessage,
    IndexQueryMessage,
    NewTupleMessage,
    QueryState,
    RetractQueryMessage,
    RicReplyMessage,
    RicRequestMessage,
    Subscriber,
)
from repro.core.query_table import StoredQueryRecord
from repro.core.rewriting import QueryShape
from repro.core.ric import RicEntry
from repro.core.windows import WindowState
from repro.data.schema import AttributeRef, RelationSchema
from repro.data.tuples import Tuple
from repro.net.messages import Envelope, Message
from repro.net.runtime import _ScheduledEvent
from repro.sql.ast import (
    Constant,
    JoinPredicate,
    Query,
    SelectionPredicate,
    WindowSpec,
)

R_A, S_C = AttributeRef("R", "a"), AttributeRef("S", "c")
SELECTION = SelectionPredicate(S_C, "x")
QUERY = Query(
    select_items=(R_A, Constant(3)),
    relations=("R", "S"),
    join_predicates=(JoinPredicate(R_A, S_C),),
    selection_predicates=(SELECTION,),
    window=WindowSpec(size=5, mode="tuples"),
)
KEY = IndexKey("S", "c", "x")
SPAN = WindowState(1.0, 3.0)
ENTRY = RicEntry(KEY.text, 2.5, "n3", 1.0, arc=(10, 20))
STATE = QueryState(
    query_id="q1",
    owner="n0",
    query=QUERY,
    insertion_time=2.0,
    is_input=False,
    window_state=SPAN,
    consumed=1,
    ric_info=(ENTRY,),
    extra_subscribers=(Subscriber("q2", "n1"),),
)
TUPLE = Tuple.from_schema(
    RelationSchema("R", ["a", "b"]), (1, "y"), pub_time=1.5, sequence=4,
    publisher="n2",
)
LOG = AnswerLog("q1")
LOG.add((1, 3), (2.0, 3.0, "n4"))
LOG.add((1, 4), (2.0, 3.0, "n4"))
LOG.add((1, 3), (2.0, 4.0, "n5"))

#: One instance of every slotted class a node, a handle or a delivery holds
#: per record, answer or message.
SLOTTED = [
    Constant(3),
    JoinPredicate(R_A, S_C),
    SELECTION,
    QUERY,
    R_A,
    TUPLE,
    KEY,
    SPAN,
    ENTRY,
    Subscriber("q2", "n1"),
    STATE,
    StoredQueryRecord(
        state=STATE, key=KEY, stored_at=2.0, seq=7, discriminator=SELECTION,
        share_key=(2.0, SPAN, False, 1),
    ),
    Answer("q1", (1, 3), produced_at=2.0, delivered_at=3.0, producer="n4"),
    LOG,
    NewTupleMessage(TUPLE, KEY, "n2"),
    IndexQueryMessage(STATE, KEY.at_attribute_level()),
    EvalMessage(STATE, KEY),
    RicRequestMessage("n0/ric-1", "n0", KEY, pending=(KEY,), collected=(ENTRY,)),
    RicReplyMessage("n0/ric-1", (ENTRY,)),
    ArcNoticeMessage([("n1", (1, 2), 0.5)]),
    AnswerMessage([("q1", [(1, 3), (1, 4)])], produced_at=2.0, producer="n4"),
    RetractQueryMessage("q1", "n0"),
    Message(),
    Envelope(
        EvalMessage(STATE, KEY), "n0", "n1", target_identifier=5,
        route=("n0", "n1"), hops=1, sent_at=1.0, delivered_at=2.0,
    ),
]

_IDS = [type(instance).__name__ for instance in SLOTTED]

#: Per-message or per-state objects held to the slot rule only: the kernel's
#: event holds a callback, and a state's shape compares by identity.
SLOTTED_ONLY = [_ScheduledEvent(1.0, print, ("x",)), QueryShape()]


@pytest.mark.parametrize(
    "instance",
    SLOTTED + SLOTTED_ONLY,
    ids=_IDS + [type(instance).__name__ for instance in SLOTTED_ONLY],
)
def test_an_instance_has_no_dict(instance):
    assert not hasattr(instance, "__dict__")


@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
    ids=["copy", "deepcopy", "pickle"],
)
@pytest.mark.parametrize("instance", SLOTTED, ids=_IDS)
def test_a_duplicate_is_equal(instance, duplicate):
    clone = duplicate(instance)
    assert type(clone) is type(instance)
    assert clone == instance


def test_every_protocol_message_is_listed():
    listed = {type(instance) for instance in SLOTTED}
    messages = {
        cls
        for cls in vars(protocol).values()
        if isinstance(cls, type)
        and issubclass(cls, Message)
        and cls.__module__ == protocol.__name__
    }
    assert len(messages) == 8 and messages <= listed
