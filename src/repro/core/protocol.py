"""Wire messages of the RJoin protocol.

The message vocabulary corresponds to the procedures of Section 3, the RIC
machinery of Sections 6–7 and answer delivery:

* :class:`NewTupleMessage` — Procedure 1/2: a published tuple indexed at a
  given key (attribute or value level),
* :class:`IndexQueryMessage` — an input query being indexed at the attribute
  level,
* :class:`EvalMessage` — Procedure 3: a rewritten query being (re)indexed,
  together with the key it was indexed under and the RIC information its
  sender chose that key by, piggy-backed,
* :class:`RicRequestMessage` / :class:`RicReplyMessage` — the chained RIC
  information gathering of Section 6 (each candidate appends its observation
  and forwards the request; the last one replies directly to the origin).  A
  chain asks only keys no other chain of its origin is asking at that moment;
  the origin matches a reply to the decisions waiting for it by the key texts
  of the entries it carries,
* :class:`ArcNoticeMessage` — the routing cache's own message: a node handed
  a keyed message on an arc that is no longer its own passes the message on
  through the ring and tells the sender which arc it owns now; a node a keyed
  message reached through the ring — its sender knew no arc for it — tells
  the sender likewise; either way with the arcs it has cached itself,
* :class:`AnswerMessage` — answers of input queries, sent directly to the
  node that submitted them: every answer one handler invocation produced for
  one owner travels in one envelope, one group per query, charged as one
  message *per answer* (see :meth:`~repro.dht.api.DHTMessagingService.send_direct`'s
  ``weight``), so the message counts of Section 8 are those of one message
  per answer,
* :class:`RetractQueryMessage` — the lifecycle layer's retraction of a
  continuous query: broadcast to every node so each one purges the query's
  local state (input record, rewritten queries, pending RIC round trips).

:class:`QueryState` is the mutable evaluation state shipped inside the query
messages: the (rewritten) query, the identity and owner of the originating
input query, its insertion time, the window state of the tuples consumed so
far, and — on the wire only — the RIC entries its last indexing decision
compared, piggy-backed for the receiver's candidate table (Section 7).

Multi-query sharing (PR 8) extends the state with *subscribers*: when two
continuous queries reach the same rewritten form (same residual query,
window state and insertion time — equal modulo query id), the storing node
keeps one physical record whose state lists every interested input query as
a :class:`Subscriber`.  The record triggers once per arriving tuple and the
answer fans out to each subscriber's owner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Container, List, Optional, Tuple as TupleT

from repro.core.keys import IndexKey
from repro.core.rewriting import QueryShape
from repro.core.ric import Arc, RicEntry
from repro.core.windows import WindowState
from repro.data.tuples import Tuple
from repro.net.messages import Message
from repro.sql.ast import Query


@dataclass(frozen=True, slots=True)
class Subscriber:
    """One input query interested in a shared query state's answers."""

    query_id: str
    owner: str


@dataclass(slots=True)
class QueryState:
    """The evaluation state of a continuous query (input or rewritten).

    ``query_id``/``owner`` identify the *primary* subscriber — the input
    query the state was originally derived for.  ``extra_subscribers`` lists
    any further input queries merged into this state by multi-query sharing;
    it is empty for unshared states, which keeps the wire format backward
    compatible.
    """

    query_id: str
    owner: str
    query: Query
    insertion_time: float
    is_input: bool = True
    window_state: Optional[WindowState] = None
    consumed: int = 0
    #: The piggy-back of Section 7, while the state travels: the RIC entries
    #: the indexing decision that sent it compared (none for a lone candidate).
    #: The receiver moves them into its candidate table; a stored or derived
    #: state carries none.
    ric_info: TupleT[RicEntry, ...] = ()
    extra_subscribers: TupleT[Subscriber, ...] = ()
    #: What is compiled for every query of ``query``'s shape: the engine's
    #: one per input shape, or the ``child_shape`` of the plan that rewrote
    #: the parent; a state built without one gets its own.
    shape: QueryShape = field(default_factory=QueryShape, compare=False, repr=False)

    def derive(
        self, query: Query, window_state: Optional[WindowState], shape: QueryShape
    ) -> "QueryState":
        """The state of ``query`` (of ``shape``), obtained by consuming one
        more tuple."""
        return QueryState(
            query_id=self.query_id,
            owner=self.owner,
            query=query,
            insertion_time=self.insertion_time,
            is_input=False,
            window_state=window_state,
            consumed=self.consumed + 1,
            extra_subscribers=self.extra_subscribers,
            shape=shape,
        )

    @property
    def distinct(self) -> bool:
        """Whether the originating input query requested set semantics."""
        return self.query.distinct

    # ------------------------------------------------------------------
    # multi-query sharing
    # ------------------------------------------------------------------
    @property
    def subscribers(self) -> TupleT[Subscriber, ...]:
        """Every input query served by this state, primary first."""
        return (Subscriber(self.query_id, self.owner),) + self.extra_subscribers

    @property
    def subscriber_ids(self) -> TupleT[str, ...]:
        """The query ids of every subscriber, primary first."""
        return (self.query_id,) + tuple(
            sub.query_id for sub in self.extra_subscribers
        )

    def serves(self, query_id: str) -> bool:
        """Whether ``query_id`` is among this state's subscribers."""
        if self.query_id == query_id:
            return True
        return any(sub.query_id == query_id for sub in self.extra_subscribers)

    def attach_subscribers(self, subscribers: TupleT[Subscriber, ...]) -> int:
        """Merge more subscribers into this state; returns how many attached.

        The subscriber list is a *multiset*: each merged state contributes
        one subscription entry even when its query id is already present.
        Two canonically equal partial states of the same query (derived from
        distinct tuples with identical values) must each deliver a copy of
        every future answer — deduplicating here would collapse the answer
        bag's multiplicity.
        """
        self.extra_subscribers = self.extra_subscribers + tuple(subscribers)
        return len(subscribers)

    def detach_subscriber(self, query_id: str) -> bool:
        """Remove every subscription of ``query_id``; True when none remain.

        A query is retracted as a whole, so all of its multiset entries go
        at once.  Detaching the primary subscriber promotes the first
        remaining extra subscriber to primary (the state keeps its insertion
        time and window state — the merge precondition guarantees they are
        identical for every subscriber).  Detaching the last subscriber
        leaves the state intact and returns True: the caller must drop the
        physical record.
        """
        remaining = tuple(
            sub for sub in self.extra_subscribers if sub.query_id != query_id
        )
        if self.query_id == query_id:
            if not remaining:
                return True
            promoted = remaining[0]
            self.query_id = promoted.query_id
            self.owner = promoted.owner
            remaining = remaining[1:]
        self.extra_subscribers = remaining
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "input" if self.is_input else f"rewritten(consumed={self.consumed})"
        return f"QueryState({self.query_id}, {kind}, {self.query})"


@dataclass(slots=True)
class NewTupleMessage(Message):
    """A freshly published tuple routed to one of its indexing keys."""

    tuple: Tuple
    key: IndexKey
    publisher: str

    @property
    def level(self) -> str:
        """Indexing level the tuple arrives at (``attribute`` or ``value``)."""
        return self.key.level


@dataclass(slots=True)
class IndexQueryMessage(Message):
    """An input query being indexed at an attribute-level key."""

    state: QueryState
    key: IndexKey


@dataclass(slots=True)
class EvalMessage(Message):
    """A rewritten query being indexed (Procedure 3)."""

    state: QueryState
    key: IndexKey


@dataclass(slots=True)
class RicRequestMessage(Message):
    """A chained request for RIC information (Section 6).

    ``target_key`` is the key the receiving node must report about; its
    identifier travels on the envelope, as for every keyed message
    (``RJoinNode._route``).  ``pending`` holds the keys still to be visited;
    ``collected`` accumulates the observations gathered so far along the
    chain.  ``target_key`` and those two together name every key the chain
    is asking: while it (or its reply) is in flight, ``origin`` asks none of
    them again — later indexing decisions wait for this chain — and if a
    crash destroys the request, the engine hands it back to ``origin``,
    which asks them afresh.  ``request_id`` labels the chain for traces
    (``<origin>/ric-<n>``, the indexing decision that started it); nothing
    is looked up by it.
    """

    request_id: str
    origin: str
    target_key: IndexKey
    pending: TupleT[IndexKey, ...] = ()
    collected: TupleT[RicEntry, ...] = ()

    def key_texts(self) -> List[str]:
        """Every key the chain is asking: at hand, still to visit, reported."""
        texts = [self.target_key.text]
        texts += [key.text for key in self.pending]
        texts += [entry.key_text for entry in self.collected]
        return texts


@dataclass(slots=True)
class RicReplyMessage(Message):
    """The final RIC reply, sent directly back to the requesting node.

    Each entry of ``collected`` resolves, at the origin, every indexing
    decision waiting for that entry's key — the one that started the chain
    and those that joined it since; ``request_id`` is the chain's trace
    label, carried over from the request.
    """

    request_id: str
    collected: TupleT[RicEntry, ...] = ()


@dataclass(slots=True)
class ArcNoticeMessage(Message):
    """What its sender knows of the ring, for a node that sent it a keyed
    message on a stale arc, or through the ring for want of one.

    ``arcs`` holds ``(address, arc, observed at)``: first the sender's own
    arc as of now, then every arc its candidate table has cached, each with
    the time it was observed (at most one per live member).  Sent direct,
    once per misdirected and once per routed keyed message, to that
    message's sender, whose candidate table takes each like the arc of a RIC
    entry, newest wins: a stale arc is replaced, a missing one filled in.
    """

    arcs: List[TupleT[str, Arc, float]]


@dataclass(slots=True)
class AnswerMessage(Message):
    """Answers of input queries, delivered to the owner they share.

    ``answers`` holds one ``(query id, values list)`` group per query, each
    group's answers in production order; a single answer is one group of one.
    """

    answers: List[TupleT[str, List[TupleT[Any, ...]]]]
    produced_at: float
    producer: str

    @property
    def count(self) -> int:
        """The number of answers carried, over every group."""
        return sum(len(values) for _, values in self.answers)

    def only(self, query_ids: Container[str]) -> "AnswerMessage":
        """The same message restricted to the groups of ``query_ids``."""
        return AnswerMessage(
            answers=[group for group in self.answers if group[0] in query_ids],
            produced_at=self.produced_at,
            producer=self.producer,
        )


@dataclass(slots=True)
class RetractQueryMessage(Message):
    """Retraction of a continuous query (query lifecycle subsystem).

    ``origin`` is the node driving the retraction (normally the query's
    owner); every receiving node deletes its state for ``query_id`` —
    the stored input-query record, every rewritten query derived from it,
    and any RIC round trip still pending on its behalf.
    """

    query_id: str
    origin: str
