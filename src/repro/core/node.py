"""Per-node RJoin protocol logic (Procedures 1–3 plus Sections 4–7 extensions).

Every DHT node of the simulated network hosts one :class:`RJoinNode` — the
application-layer state and the handlers for every protocol message:

* publishing a tuple (Procedure 1): the tuple is sent, for each of its
  attributes, to the attribute-level key and to the value-level key,
* receiving a tuple (Procedure 2): locally stored queries indexed under the
  arrival key are triggered, rewritten and re-indexed (or answered); tuples
  arriving at the value level are stored locally, tuples arriving at the
  attribute level are remembered in the ALTT for Δ time units,
* receiving an input query: it is stored at the attribute level and matched
  against the ALTT (the Section 4 fix for message delays),
* receiving a rewritten query (Procedure 3): it is stored and matched against
  the locally stored tuples,
* RIC requests/replies (Section 6) and the candidate-table/piggy-backing
  optimisations (Section 7), whose cached arcs also address every keyed
  message the node sends (:meth:`RJoinNode._route`),
* sliding-window garbage collection (Section 5) and DISTINCT projection
  tracking (Section 4).
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple as TupleT,
)

from repro.core.altt import AttributeLevelTupleTable
from repro.core.dedup import ProjectionTracker
from repro.core.keys import ATTRIBUTE_LEVEL, IndexKey, tuple_index_keys
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
)
from repro.core.query_table import QueryTable, StoredQueryRecord
from repro.core.rewriting import canonical_state_key, rewrite_query
from repro.core.ric import Arc, CandidateTable, RateTracker, RicEntry, arc_holds
from repro.core.strategy import IndexingStrategy, input_query_candidates
from repro.core.windows import expired, extend
from repro.core.config import RJoinConfig
from repro.data.backends import StoreBackend, make_store
from repro.data.schema import Catalog, RelationSchema
from repro.data.store import StoredTuple
from repro.data.tuples import Tuple
from repro.dht.api import DHTMessagingService
from repro.dht.hashing import IdentifierSpace
from repro.errors import EngineError
from repro.metrics.collectors import ChurnStats, LoadTracker
from repro.net.messages import Envelope, Message
from repro.sql.ast import WindowSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.lifecycle import HandleRegistration, QueryLifecycleManager
    from repro.obs.context import Observability


@dataclass
class NodeContext:
    """Engine-provided services shared by every :class:`RJoinNode`."""

    api: DHTMessagingService
    space: IdentifierSpace
    config: RJoinConfig
    strategy: IndexingStrategy
    loads: LoadTracker
    catalog: Catalog
    rng: random.Random
    clock: Callable[[], float]
    sequence_clock: Callable[[], int]
    rate_oracle: Callable[[str], float]
    collect_answer: Callable[[AnswerMessage, float], None]
    #: The engine-wide counters the nodes add to.
    churn: ChurnStats
    #: The query lifecycle: producers resolve a query's live owner through it
    #: at answer-emission time (so failover re-registrations take effect
    #: without rewriting every stored query state), and state arriving for a
    #: query it has retracted is orphaned and dropped on sight.
    lifecycle: "QueryLifecycleManager"
    altt_delta: Optional[float] = None
    # End-to-end observability (tracing + histograms) ----------------------
    #: The engine's tracing/metrics facade; ``None`` when observability is
    #: off, in which case every node-level hook is a single None check.
    obs: Optional["Observability"] = None


@dataclass(eq=False)
class _PendingIndexOp:
    """An indexing decision waiting for RIC information to come back."""

    #: Its key in ``RJoinNode._pending_ric``, and the ``request_id`` of the
    #: chain it starts (if it has anything to ask that nobody is asking).
    label: str
    state: QueryState
    candidates: List[IndexKey]
    #: Entries it had, plus those reported since, by key text.
    known: Dict[str, RicEntry]
    #: Candidate keys it waits for that no reply has reported yet.
    missing: int


@dataclass
class RehomedItem:
    """A stored item that must move to another node after id movement."""

    kind: str     # "input" | "rewritten" | "tuple" | "altt" | "registration"
    key_text: str
    payload: object


class RJoinNode:
    """The application-layer state and handlers of one DHT node."""

    def __init__(self, address: str, ctx: NodeContext) -> None:
        self.address = address
        self.ctx = ctx
        # Stored state ----------------------------------------------------
        self.input_queries = QueryTable()
        self.rewritten_queries = QueryTable()
        self.tuple_store: StoreBackend = make_store(ctx.config.store_backend)
        self.altt = AttributeLevelTupleTable(delta=ctx.altt_delta)
        # RIC state ---------------------------------------------------------
        self.rates = RateTracker(window=ctx.config.ric_window)
        self.candidate_table = CandidateTable(freshness=ctx.config.ric_freshness)
        #: Only a strategy that asks RIC ever learns an arc; the others route
        #: every keyed message and must be told nothing for it.
        self._keeps_arcs = ctx.strategy.requires_ric
        self._pending_ric: Dict[str, _PendingIndexOp] = {}
        self._ric_counter = 0
        #: Key text -> the pending ops waiting for that key, in the order they
        #: registered.  A key is in here exactly while one chain of this node
        #: is asking it: the op that puts it in sends the chain, later ops
        #: wait with it, and the reply (or the hand-back of a chain a crash
        #: destroyed, :meth:`ric_chain_lost`) takes it out.  An op that was
        #: retracted or handed back meanwhile has left ``_pending_ric`` and
        #: is skipped.
        self._ric_waiters: Dict[str, List[_PendingIndexOp]] = {}
        # Query lifecycle state -----------------------------------------------
        #: Replicated handle registrations this node holds for queries whose
        #: owner's ring successor it currently is (owner failover).
        self.registrations: Dict[str, "HandleRegistration"] = {}
        # Local counters ------------------------------------------------------
        #: Times a cached one-hop address turned out to have left the ring by
        #: the time a query was sent (Section 6 shortcut gone stale).  Eager
        #: candidate-table invalidation on membership events keeps this at
        #: zero; the counter is the regression probe for that behaviour.
        self.stale_one_hop_attempts = 0
        #: The RIC path: chains this node sent off, unknown keys it waited for
        #: on a chain already in flight instead of asking again, unknown keys
        #: it did not ask because no answer could have changed the choice
        #: (``IndexingStrategy.worth_asking``), and chains a crash destroyed
        #: and the engine handed back (:meth:`ric_chain_lost`).
        self.ric_chains_started = 0
        self.ric_questions_joined = 0
        self.ric_questions_spared = 0
        self.ric_chains_lost = 0
        #: The routing cache: keyed messages this node sent in one hop on a
        #: cached arc instead of through the ring, and keyed messages it was
        #: handed for identifiers it does not own (the sender's arc was
        #: stale) and passed on through the ring.
        self.arc_sends_direct = 0
        self.arc_sends_misdirected = 0
        # Answer path ---------------------------------------------------------
        #: Answers the running handler produced so far, per resolved owner and
        #: query (in order of first answer); :meth:`handle_envelope` sends them
        #: when the handler returns, so it never outlives one invocation.
        self._answers: Dict[str, Dict[str, List[TupleT[Any, ...]]]] = {}
        # Dispatch ------------------------------------------------------------
        #: Message type -> handler ``(message, delivered_at)``.
        self._dispatch: Dict[type, Callable[[Any, float], None]] = {
            NewTupleMessage: self._on_new_tuple,
            EvalMessage: self._on_eval,
            IndexQueryMessage: self._on_index_query,
            RicRequestMessage: self._on_ric_request,
            RicReplyMessage: self._on_ric_reply,
            ArcNoticeMessage: self._on_arc_notice,
            AnswerMessage: self._on_answer,
            RetractQueryMessage: self._on_retract_query,
        }

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def handle_envelope(self, envelope: Envelope) -> None:
        """Entry point registered with the messaging service.

        An address is a hint and the receiver decides: a message sent here
        in one hop as to the owner of an identifier is held against this
        node's arc before anything looks at it, whatever its kind.  (An
        answer names no identifier.)  A routed message was brought here by
        the ring itself, because its sender had no arc to send it on: that
        costs the sender one message, not every one (:meth:`_tell_arcs`).
        """
        message = envelope.message
        identifier = envelope.target_identifier
        if identifier is not None:
            if envelope.direct:
                arc = self.ctx.api.ring.arc_of(self.address)
                if not arc_holds(arc, identifier):
                    self._pass_on(envelope, identifier, arc)
                    return
            elif self._keeps_arcs and envelope.sender != self.address:
                # Its sender knew no arc for it, and is told.
                self._tell_arcs(envelope, self.ctx.api.ring.arc_of(self.address))
        handler = self._dispatch.get(type(message))
        if handler is None:
            return  # unknown kinds are silently ignored (forward compatibility)
        try:
            handler(message, envelope.delivered_at)
        finally:
            # Also when the handler raised: what it produced before is sent,
            # and nothing is left over for the next delivery to inherit.
            if self._answers:
                self._flush_answers(envelope.delivered_at)

    # ------------------------------------------------------------------
    # Procedure 1: publishing a tuple
    # ------------------------------------------------------------------
    def publish_tuples(self, tuples: Sequence[Tuple]) -> int:
        """Index tuples in the network, each twice per attribute (attribute
        and value level): the paper's ``multiSend(M, I)``.

        Each of a tuple's 2k keys costs one message once its owner's arc is
        cached, and O(log N) until then.  It is the routing step of the
        engine's one ingestion path,
        :meth:`repro.core.engine.RJoinEngine.publish_batch` (``publish`` is
        its one-row case), which commits once the fan-out is delivered.
        Returns the number of messages sent.
        """
        catalog = self.ctx.catalog
        hash_key = self.ctx.space.hash_key
        sent = 0
        for tup in tuples:
            for key in tuple_index_keys(tup, catalog.get(tup.relation)):
                self._route(
                    NewTupleMessage(tuple=tup, key=key, publisher=self.address),
                    hash_key(key.text),
                )
                sent += 1
        return sent

    # ------------------------------------------------------------------
    # query submission (invoked on the owner node by the engine)
    # ------------------------------------------------------------------
    def submit_query(self, state: QueryState) -> None:
        """Start indexing an input query submitted by this node."""
        self._index_query(state, input_query_candidates(state.query))

    # ------------------------------------------------------------------
    # Procedure 2: receiving a tuple
    # ------------------------------------------------------------------
    def _on_new_tuple(self, msg: NewTupleMessage, delivered_at: float) -> None:
        now = self.ctx.clock()
        key = msg.key
        tup = msg.tuple
        self.ctx.loads.record_tuple_received(self.address)
        self.rates.record(key.text, now)
        if self.ctx.obs is not None:
            self.ctx.obs.record_key_load(key.text)

        if key.level == ATTRIBUTE_LEVEL:
            self._trigger_stored_queries(self.input_queries, key.text, tup)
            if self.ctx.config.allow_attribute_level_rewrites:
                self._trigger_stored_queries(self.rewritten_queries, key.text, tup)
            # Remember the tuple for input queries that are still in flight
            # (Section 4); entries expire after Δ.
            self.altt.add(key.text, tup, now)
            self.altt.expire(now)
        else:
            self._trigger_stored_queries(self.rewritten_queries, key.text, tup)
            self.tuple_store.add(key.text, tup, now)
            self.ctx.loads.record_tuple_stored(self.address)

    def _trigger_stored_queries(
        self,
        table: QueryTable,
        key_text: str,
        tup: Tuple,
    ) -> None:
        """Trigger, rewrite and re-index the queries stored under ``key_text``.

        The probe fetches only the records whose discriminating selection the
        tuple's values satisfy (plus the wildcard records); window-expired
        records are dropped through the bucket's expiry heap exactly like the
        old full scan dropped them (Section 5), without touching survivors.
        A tuple-window record is judged against the engine's sequence clock,
        not the arriving tuple's number: a tuple of a burst can arrive ahead
        of an earlier one of it that may still complete the record.
        """
        schema = self.ctx.catalog.get(tup.relation)
        candidates, dropped = table.probe(
            key_text,
            # expired(window, state, clock) per window mode.
            clocks={
                "time": tup.pub_time,
                "tuples": float(self.ctx.sequence_clock()),
            },
            value_of=lambda attribute: tup.value_of(attribute, schema),
        )
        if dropped:
            self.ctx.loads.record_query_dropped(self.address, dropped)
        if not candidates:
            return
        self.ctx.churn.trigger_candidates_scanned += len(candidates)
        one = (tup,)
        for record in candidates:
            self._trigger(record, one, schema)

    def _trigger(
        self,
        record: StoredQueryRecord,
        tuples: Sequence[Tuple],
        schema: RelationSchema,
    ) -> None:
        """Procedure 3's loop: rewrite ``record`` by each tuple that may trigger it.

        ``tuples`` are of one relation (``schema``'s) and in publication
        order, as a key's store and the ALTT hand them out.  Everything that
        is the same for all of them — the state, the window bounds, the
        tracker, the plan, the sinks — is read once; per tuple remain the
        trigger conditions (published at or after the query's submission,
        inside the window by :func:`~repro.core.windows.admits`' rule,
        admitted by the DISTINCT tracker), the rewrite, and the answer or the
        re-indexing, in tuple order.  The answers of a state with one
        subscriber are buffered in one go; a shared state fans each answer out
        to every subscriber as it is produced, so per-subscriber accounting
        and the order inside an owner's envelope match what N private states
        would have produced.  What the tuples before a raising one produced
        is counted and buffered all the same.
        """
        state = record.state
        query = state.query
        relation = schema.name
        if relation not in query.relations:
            return
        inserted = state.insertion_time
        window = query.window
        span = state.window_state
        # The window bounds, when there is a window and a tuple was consumed.
        size: Optional[float] = None
        if window is not None and span is not None:
            low, high, size = span.min_clock, span.max_clock, window.size
            by_time = window.mode == "time"
        tracker = record.tracker if state.distinct else None
        plan = record.plan
        if plan is not None and plan.relation != relation:
            plan = None
        extras = state.extra_subscribers
        answers: List[TupleT[Any, ...]] = []
        fired = 0
        try:
            for tup in tuples:
                if tup.pub_time < inserted:
                    continue
                if size is not None:
                    clock = tup.pub_time if by_time else float(tup.sequence)
                    if (
                        (clock if clock > high else high)
                        - (clock if clock < low else low)
                        + 1
                    ) > size:
                        continue
                if tracker is not None and not tracker.admit_and_record(
                    query, tup, schema
                ):
                    continue
                if plan is None:
                    plan = record.plan = state.shape.plan_for(query, relation, schema)
                result = rewrite_query(query, tup, schema, plan)
                if result.dead:
                    continue
                fired += 1
                values = result.values
                if values is None:  # not an answer yet: re-index the rewrite
                    child = result.query
                    assert child is not None
                    shape = plan.child_shape
                    self._index_query(
                        state.derive(child, extend(window, span, tup), shape),
                        shape.candidate_plan(child).apply(
                            child, self.ctx.config.allow_attribute_level_rewrites
                        ),
                    )
                elif not extras:
                    answers.append(values)
                else:
                    for subscriber in state.subscribers:
                        self._buffer_answers(
                            subscriber.query_id, subscriber.owner, (values,)
                        )
                    self.ctx.churn.shared_state_fanout += len(extras)
        finally:
            self.ctx.churn.queries_triggered += fired
            if answers:
                self._buffer_answers(state.query_id, state.owner, answers)

    @staticmethod
    def _make_tracker(state: QueryState) -> Optional[ProjectionTracker]:
        """Projection tracking applies to DISTINCT queries without windows.

        For windowless DISTINCT queries the paper's local rule is safe: a
        suppressed tuple can only ever reproduce answer values that the
        previously seen projection already produces.  With sliding windows
        the rule could suppress a tuple whose earlier twin expired before
        completing a combination, losing answers; those queries rely on the
        owner-side deduplication of :class:`~repro.core.answers.QueryHandle`
        instead (see DESIGN.md).
        """
        if state.distinct and state.query.window is None:
            return ProjectionTracker()
        return None

    def _buffer_answers(
        self, query_id: str, owner: str, values: Sequence[TupleT[Any, ...]]
    ) -> None:
        """Count ``values`` as answers of ``query_id`` and queue them for its owner.

        The destination is resolved through the lifecycle layer at emission
        time: after an owner failover the stored query states still carry the
        departed owner's address, but answers must reach the surviving
        registrant.  The answers leave with :meth:`_flush_answers`.
        """
        self.ctx.loads.record_answer(self.address, len(values))
        owner = self.ctx.lifecycle.resolve_owner(query_id, owner)
        self._answers.setdefault(owner, {}).setdefault(query_id, []).extend(values)

    def _flush_answers(self, now: float) -> None:
        """Send what the handler produced: one envelope per owner.

        The envelope carries one group per query and is charged one message
        per answer, which is what the paper's one-message-per-answer
        delivery costs.  ``now`` is the delivery time of the envelope that
        was handled: the answers were produced, and leave, then.
        """
        answers, self._answers = self._answers, {}
        for owner, groups in answers.items():
            message = AnswerMessage(list(groups.items()), now, self.address)
            self.ctx.api.send_direct(self.address, message, owner, weight=message.count)

    # ------------------------------------------------------------------
    # receiving an input query
    # ------------------------------------------------------------------
    def _on_index_query(self, msg: IndexQueryMessage, delivered_at: float) -> None:
        now = self.ctx.clock()
        self.ctx.loads.record_input_query_received(self.address)
        state, key = msg.state, msg.key
        if self._drop_if_retracted(state):
            return
        self._adopt_ric_info(state)
        # Section 4, rule 2: the ALTT holds the tuples that raced past the query.
        raced = self.altt.find(key.text, now, state.insertion_time)
        self._settle(self.input_queries, state, key, now, keep=True, waiting=raced)

    # ------------------------------------------------------------------
    # Procedure 3: receiving a rewritten query
    # ------------------------------------------------------------------
    def _on_eval(self, msg: EvalMessage, delivered_at: float) -> None:
        now = self.ctx.clock()
        self.ctx.loads.record_query_received(self.address)
        state, key = msg.state, msg.key
        if self._drop_if_retracted(state):
            return
        self._adopt_ric_info(state)
        # A query whose window can no longer admit *future* tuples is not
        # stored, but it must still be matched against the tuples already
        # stored here (published after the input query was submitted but
        # delivered before this query): those may well complete a combination
        # that fits the window.
        window = state.query.window
        open_for_future = window is None or not expired(
            window, state.window_state, self._window_clock(window)
        )
        stored = self._stored_tuples_for(key)
        self._settle(self.rewritten_queries, state, key, now, open_for_future, stored)

    def _settle(
        self,
        table: QueryTable,
        state: QueryState,
        key: IndexKey,
        now: float,
        keep: bool,
        waiting: Sequence[Tuple],
    ) -> None:
        """Store an arriving query in ``table`` if it is to be kept, and match
        it against the tuples of its key that were ``waiting`` here.

        Multi-query sharing: an equivalent state already resident absorbs the
        newcomer's subscribers instead of a second physical record.  The
        newcomer runs its catch-up on its own (unstored) record first — the
        host already triggered for its subscribers when those tuples arrived
        — and only then attaches its subscribers, so future arrivals trigger
        the host exactly once.
        """
        record = StoredQueryRecord(
            state=state,
            key=key,
            stored_at=now,
            tracker=self._make_tracker(state),
            share_key=canonical_state_key(state),
        )
        host: Optional[StoredQueryRecord] = None
        if keep:
            host = table.find_share_host(key.text, record.share_key, state.query)
            if host is None:
                table.add(key.text, record)
                if not state.is_input:
                    self.ctx.loads.record_query_stored(self.address)
        if waiting:
            self._trigger(record, waiting, self.ctx.catalog.get(key.relation))
        if host is not None:
            host.state.attach_subscribers(state.subscribers)

    def _stored_tuples_for(self, key: IndexKey) -> List[Tuple]:
        """Locally stored tuples matching a query indexed under ``key``.

        Results are in publication order (``(pub_time, sequence)``).
        """
        if key.is_value_level:
            return self.tuple_store.tuples_for_key(key.text)
        # Attribute-level rewritten query: scan every value-level copy of the
        # relation-attribute pair plus the ALTT, deduplicating publications.
        now = self.ctx.clock()
        tuples = self.tuple_store.tuples_for_prefix(key.attribute_prefix)
        if self.ctx.obs is not None:
            self.ctx.obs.record_store_probe(len(tuples))
        seen = {tup.identity for tup in tuples}
        extras: List[Tuple] = []
        for tup in self.altt.find(key.text, now):
            if tup.identity not in seen:
                seen.add(tup.identity)
                extras.append(tup)
        if not extras:
            return tuples
        extras.sort(key=lambda t: (t.pub_time, t.sequence))
        return list(
            heapq.merge(tuples, extras, key=lambda t: (t.pub_time, t.sequence))
        )

    # ------------------------------------------------------------------
    # indexing pipeline (Sections 3, 6 and 7)
    # ------------------------------------------------------------------
    def _adopt_ric_info(self, state: QueryState) -> None:
        """Move the RIC information piggy-backed on an arriving query into the
        candidate table: the state, stored or rewritten, keeps none of it.

        Entries reported by nodes that have since left the ring are dropped
        *before* they reach the candidate table — otherwise an in-flight
        query would re-pollute tables that the membership event already
        invalidated eagerly, and the stale address would surface later as a
        failed one-hop attempt.
        """
        entries = state.ric_info
        if not entries:
            return
        state.ric_info = ()
        has_address = self.ctx.api.ring.has_address
        self.candidate_table.update_many(
            entry for entry in entries if has_address(entry.address)
        )

    def _index_query(self, state: QueryState, candidates: List[IndexKey]) -> None:
        """Decide under which of ``candidates`` to index ``state`` and send it there.

        A strategy that chooses by rate reads the candidate table and asks
        the unknown keys that are ``worth_asking``: none for a lone candidate.
        Unknown is also what the table holds back to have it read again
        (``CandidateTable.lookup``).
        """
        if not candidates:
            # Nothing to wait for (degenerate query): nothing to index.
            return
        strategy = self.ctx.strategy
        if not strategy.requires_ric:
            rates: Dict[str, float] = {}
            if strategy.uses_oracle:
                rates = {
                    key.text: self.ctx.rate_oracle(key.text) for key in candidates
                }
            self._send_query(state, strategy.choose(candidates, rates, self.ctx.rng))
            return
        if len(candidates) == 1:  # no answer could change this choice
            self._send_query(state, candidates[0])
            return
        now = self.ctx.clock()
        lookup = self.candidate_table.lookup
        known: Dict[str, RicEntry] = {}
        for key in candidates:
            entry = lookup(key.text, now)
            if entry is not None:
                known[key.text] = entry
        unknown = len(candidates) - len(known)
        if unknown:
            ask = strategy.worth_asking(
                candidates, {key_text: entry.rate for key_text, entry in known.items()}
            )
            spared = unknown - len(ask)
            if spared:
                self.ric_questions_spared += spared
                if self.ctx.obs is not None:
                    self.ctx.obs.record_ric("spared", spared)
            if ask:
                self._start_ric_chain(state, candidates, known, ask)
                return
        self._finish_indexing(state, candidates, known)

    def _start_ric_chain(
        self,
        state: QueryState,
        candidates: List[IndexKey],
        known: Dict[str, RicEntry],
        worth: List[IndexKey],
    ) -> None:
        """Wait for RIC information about ``worth``, the unknown candidates
        worth a question; ask what nobody is asking.

        The candidate table's promise — a key once asked needs no further
        message (Section 7) — extended to answers that are on their way: a
        key another chain of this node is asking right now is waited for,
        not asked again, and the chain sent here (Section 6) holds the rest.
        None when every one of them is already in flight.
        """
        self._ric_counter += 1
        label = f"{self.address}/ric-{self._ric_counter}"
        op = _PendingIndexOp(label, state, candidates, known, len(worth))
        self._pending_ric[label] = op
        waiters = self._ric_waiters
        ask: List[IndexKey] = []
        for key in worth:
            waiting = waiters.get(key.text)
            if waiting is None:
                waiters[key.text] = [op]
                ask.append(key)
            else:
                waiting.append(op)
        joined = len(worth) - len(ask)
        if joined:
            self.ric_questions_joined += joined
            if self.ctx.obs is not None:
                self.ctx.obs.record_ric("joined", joined)
        if not ask:
            return
        self.ric_chains_started += 1
        self._route(
            RicRequestMessage(
                request_id=label,
                origin=self.address,
                target_key=ask[0],
                pending=tuple(ask[1:]),
                collected=(),
            ),
            self.ctx.space.hash_key(ask[0].text),
        )

    def _on_ric_request(self, msg: RicRequestMessage, delivered_at: float) -> None:
        """Report the local arrival rate and forward the chain (Section 6)."""
        if self.ctx.obs is not None:
            self.ctx.obs.record_ric("request")
        now = self.ctx.clock()
        entry = RicEntry(
            key_text=msg.target_key.text,
            rate=self.rates.rate(msg.target_key.text, now),
            address=self.address,
            observed_at=now,
            arc=self.ctx.api.ring.arc_of(self.address),
        )
        collected = msg.collected + (entry,)
        if msg.pending:
            next_key, rest = msg.pending[0], msg.pending[1:]
            self._route(
                RicRequestMessage(
                    request_id=msg.request_id,
                    origin=msg.origin,
                    target_key=next_key,
                    pending=rest,
                    collected=collected,
                ),
                self.ctx.space.hash_key(next_key.text),
            )
        else:
            reply = RicReplyMessage(request_id=msg.request_id, collected=collected)
            self.ctx.api.send_direct(self.address, reply, msg.origin, is_ric=True)

    def _on_ric_reply(self, msg: RicReplyMessage, delivered_at: float) -> None:
        """Give every reported key to the ops waiting for it.

        An op whose last missing key this is goes on to
        :meth:`_finish_indexing` with what it knew plus what was reported to
        it — ops in the order their last key resolves, the waiters of one key
        in the order they registered.  A reply whose keys nobody (alive)
        waits for changes only the candidate table.
        """
        if self.ctx.obs is not None:
            self.ctx.obs.record_ric("reply")
        ring = self.ctx.api.ring
        pending = self._pending_ric
        for entry in msg.collected:
            # A reporter can crash while its reply is in flight; its entry is
            # dead on arrival: it ends the wait for its key, but must neither
            # re-enter the candidate table nor inform a decision.
            live = ring.has_address(entry.address)
            if live:
                self.candidate_table.update(entry)
            for op in self._ric_waiters.pop(entry.key_text, ()):
                if op.label not in pending:
                    continue
                if live:
                    op.known[entry.key_text] = entry
                op.missing -= 1
                if op.missing:
                    continue
                del pending[op.label]
                state = op.state
                if self._drop_if_retracted(state):
                    continue
                entries = {
                    key_text: known
                    for key_text, known in op.known.items()
                    if ring.has_address(known.address)
                }
                self._finish_indexing(state, op.candidates, entries)

    def ric_chain_lost(self, request: RicRequestMessage) -> None:
        """A crash destroyed ``request``, a chain of this node: ask again.

        Called by the engine once the survivors have forgotten the crashed
        node.  Every key of the chain — reported along the way or not — leaves
        the waiter index, and each indexing decision that waited for one of
        them starts over on the repaired ring: what the table knows by now is
        used, the rest is asked by a fresh chain (or waited for, where
        another chain still asks it).
        """
        self.ric_chains_lost += 1
        pending = self._pending_ric
        stranded: List[_PendingIndexOp] = []
        for key_text in request.key_texts():
            for op in self._ric_waiters.pop(key_text, ()):
                if pending.pop(op.label, None) is not None:
                    stranded.append(op)
        for op in stranded:
            self._index_query(op.state, op.candidates)

    def _finish_indexing(
        self,
        state: QueryState,
        candidates: List[IndexKey],
        entries: Dict[str, RicEntry],
    ) -> None:
        """Choose the candidate with the gathered rates and ship the query."""
        rates = {key_text: entry.rate for key_text, entry in entries.items()}
        choice = self.ctx.strategy.choose(candidates, rates, self.ctx.rng)
        # Piggy-back what this decision compared, and no more, so that the
        # next node need not ask it (Section 7).
        state.ric_info = tuple(entries.values())
        chosen_entry = entries.get(choice.text)
        known_address = chosen_entry.address if chosen_entry is not None else None
        self._send_query(state, choice, known_address)

    def _send_query(
        self, state: QueryState, key: IndexKey, known_address: Optional[str] = None
    ) -> None:
        """Transmit the (input or rewritten) query to its chosen node."""
        message: Message
        if state.is_input:
            message = IndexQueryMessage(state=state, key=key)
        else:
            message = EvalMessage(state=state, key=key)
        self._route(message, self.ctx.space.hash_key(key.text), hint=known_address)

    # ------------------------------------------------------------------
    # the routing cache
    # ------------------------------------------------------------------
    def _route(
        self, message: Message, identifier: int, hint: Optional[str] = None
    ) -> None:
        """Send ``message`` to the owner of ``identifier``, in one hop if known.

        The one way a tuple, an input query, a rewritten query and a RIC
        question leave this node.  The candidate table's promise extended
        from keys to owners: a node that ever reported about any key also
        said which arc of the ring it owns, and whatever is for an
        identifier on that arc goes straight to it — as does a query to the
        address ``hint`` its chosen key's entry names (the one-hop shortcut
        of Section 6), while the table knows no arc to gainsay it.  With
        nobody known the message is routed through the ring, as the paper
        has it, and the owner it reaches says what it knows of the ring
        (:meth:`_tell_arcs`); a strategy that never asks RIC learns no arc
        and routes everything.  The address is a guess, and
        :meth:`handle_envelope` of the node it names the judge of it.
        """
        api = self.ctx.api
        is_ric = type(message) is RicRequestMessage
        owner = self.candidate_table.owner_of(identifier, hint)
        if owner is not None and not api.ring.has_address(owner):
            # Departures drop their entries and arcs eagerly: this counts
            # what slipped through.
            self.stale_one_hop_attempts += 1
            owner = None
        if owner is None:
            api.send(self.address, message, identifier, is_ric=is_ric)
            return
        self.arc_sends_direct += 1
        api.send_direct(
            self.address, message, owner, is_ric=is_ric, target_identifier=identifier
        )

    def _pass_on(self, envelope: Envelope, identifier: int, arc: Arc) -> None:
        """``envelope`` came in one hop for an ``identifier`` off ``arc``, this
        node's own: the sender's cached arc of it is stale.

        The ring knows the owner, so the message goes on through it, at this
        node's charge; and the sender is told ``arc`` in one direct notice,
        so that the stale one misdirects one of its messages, not every one.
        """
        self.arc_sends_misdirected += 1
        if self.ctx.obs is not None:
            self.ctx.obs.record_misdirected(envelope.kind)
        message = envelope.message
        self.ctx.api.send(
            self.address, message, identifier,
            is_ric=type(message) is RicRequestMessage,
        )
        self._tell_arcs(envelope, arc)

    def _tell_arcs(self, envelope: Envelope, arc: Arc) -> None:
        """Tell the sender of ``envelope`` that this node owns ``arc``, and the
        arcs it has cached, in one direct notice.

        A stale arc and a missing one both end here.  What is cached comes
        with the time it was observed, so the sender's table keeps whatever
        it knows to be newer (:meth:`~repro.core.ric.CandidateTable.learn_arc`);
        with it a node's first misses fill its table — at most one arc per
        live member in a notice, at most one notice per message that had no
        good arc to travel on.  A strategy that never asks RIC keeps no arcs
        and is told none.
        """
        api = self.ctx.api
        if not api.ring.has_address(envelope.sender):  # it left meanwhile
            return
        arcs = [(self.address, arc, self.ctx.clock())]
        arcs += self.candidate_table.arcs()
        api.send_direct(
            self.address, ArcNoticeMessage(arcs), envelope.sender,
            is_ric=type(envelope.message) is RicRequestMessage,
        )

    def _on_arc_notice(self, msg: ArcNoticeMessage, delivered_at: float) -> None:
        """A node this one sent a keyed message says what it knows of the ring
        (:meth:`_tell_arcs`)."""
        has_address = self.ctx.api.ring.has_address
        learn_arc = self.candidate_table.learn_arc
        for address, arc, observed_at in msg.arcs:
            if has_address(address):  # still, by now
                learn_arc(address, arc, observed_at)

    # ------------------------------------------------------------------
    # answers
    # ------------------------------------------------------------------
    def _on_answer(self, msg: AnswerMessage, delivered_at: float) -> None:
        """Answers for queries submitted by this node arrived.

        They are stamped with the envelope's own delivery time, not the
        runtime clock: on ``asyncio`` the clock is the high-water mark over
        every delivery made so far, which can be later.
        """
        self.ctx.collect_answer(msg, delivered_at)

    # ------------------------------------------------------------------
    # query lifecycle: retraction and vacuum
    # ------------------------------------------------------------------
    def _drop_if_retracted(self, state: QueryState) -> bool:
        """Drop state of an already-retracted query (orphan guard).

        Retraction drains the network first, so in ordinary runs nothing is
        in flight when a query is removed; this guard catches the exotic
        interleavings (kernel-scheduled membership ops firing mid-drain)
        where a straggler could otherwise re-install purged state.  A shared
        state detaches its retracted subscribers and is only dropped — and
        counted by the ``orphaned_state_records`` probe — when none remain.
        """
        is_retracted = self.ctx.lifecycle.is_retracted
        if not state.extra_subscribers and not is_retracted(state.query_id):
            return False  # nearly every arrival: one subscriber, still active
        retracted_ids = [
            query_id
            for query_id in state.subscriber_ids
            if is_retracted(query_id)
        ]
        if not retracted_ids:
            return False
        for query_id in retracted_ids:
            if state.detach_subscriber(query_id):
                self.ctx.churn.orphaned_state_records += 1
                return True
        return False

    def _on_retract_query(self, msg: RetractQueryMessage, delivered_at: float) -> None:
        """Delete every piece of local state belonging to a retracted query."""
        self.retract_query(msg.query_id)

    def retract_query(self, query_id: str) -> int:
        """Purge ``query_id``'s state from this node; returns the purge count.

        Covers the three per-query state kinds a node can hold: the stored
        input-query record, every rewritten query derived from it, and RIC
        round trips still pending on its behalf.  A shared record serving
        other subscribers too is not deleted — the retracted subscriber is
        detached (still counted as a purge) and the survivors keep the
        record.  Physically purged rewritten queries leave the storage-load
        accounting like window-expired ones do, so ``current_storage`` keeps
        matching the live state.
        """
        input_records, input_detached = self.input_queries.remove_query(query_id)
        rewritten_records, rewritten_detached = self.rewritten_queries.remove_query(
            query_id
        )
        if rewritten_records:
            self.ctx.loads.record_query_dropped(
                self.address, len(rewritten_records)
            )
        stale_ops: List[str] = []
        ops_detached = 0
        for label, op in self._pending_ric.items():
            if not op.state.serves(query_id):
                continue
            if op.state.detach_subscriber(query_id):
                stale_ops.append(label)
            else:
                ops_detached += 1
        # Leaving ``_pending_ric`` is what unlinks an op: the replies it
        # waited for step over it (its keys stay asked until they arrive).
        for label in stale_ops:
            del self._pending_ric[label]
        purged = (
            len(input_records)
            + len(rewritten_records)
            + len(stale_ops)
            + input_detached
            + rewritten_detached
            + ops_detached
        )
        self.ctx.churn.records_retracted += purged
        return purged

    def vacuum(self, published_before: float) -> int:
        """Reclaim state that exists only to serve continuous queries.

        Called by the engine when the last active query has been removed:
        any *future* query's insertion time will be at or after ``now``,
        and the trigger condition ``pubT(t) >= insT(q)`` makes every tuple
        published strictly before that unreachable — stored value-level
        copies and ALTT entries alike.  The candidate table's RIC entries
        are cleared with them (they only inform indexing decisions of
        queries); its arcs stay, being about the ring.
        Returns the number of reclaimed records.
        """
        tuples_dropped = self.tuple_store.remove_expired(
            published_before=published_before
        )
        if tuples_dropped:
            self.ctx.loads.record_tuple_dropped(self.address, tuples_dropped)
        altt_dropped = self.altt.remove_published_before(published_before)
        cache_dropped = self.candidate_table.clear_entries()
        return tuples_dropped + altt_dropped + cache_dropped

    # ------------------------------------------------------------------
    # sliding-window / storage garbage collection
    # ------------------------------------------------------------------
    def _window_clock(self, window: WindowSpec) -> float:
        """The current value of a window's clock (time or tuple sequence)."""
        if window.mode == "time":
            return self.ctx.clock()
        return float(self.ctx.sequence_clock())

    def gc_expired_state(self) -> TupleT[int, int]:
        """Drop window-expired rewritten queries and (optionally) stored tuples.

        Returns ``(queries dropped, tuples dropped)``.  Stored tuples are only
        collected when the engine configured ``tuple_gc_window`` (i.e. every
        query of the run shares the same window, so an aged-out tuple can
        never contribute to any answer again).
        """
        queries_dropped = self.rewritten_queries.gc_expired(
            {
                "time": self.ctx.clock(),
                "tuples": float(self.ctx.sequence_clock()),
            }
        )
        if queries_dropped:
            self.ctx.loads.record_query_dropped(self.address, queries_dropped)

        tuples_dropped = 0
        gc_window = self.ctx.config.tuple_gc_window
        if gc_window is not None:
            # tuple_expired(window, tup, clock) <=> clock_of(tup) < cutoff.
            cutoff = self._window_clock(gc_window) - gc_window.size + 1
            if gc_window.mode == "time":
                tuples_dropped = self.tuple_store.remove_expired(
                    published_before=cutoff
                )
            else:
                tuples_dropped = self.tuple_store.remove_expired(
                    sequenced_before=int(cutoff)
                )
            if tuples_dropped:
                self.ctx.loads.record_tuple_dropped(self.address, tuples_dropped)
        return queries_dropped, tuples_dropped

    # ------------------------------------------------------------------
    # membership support (id movement, node join/leave — Figure 9 and churn)
    # ------------------------------------------------------------------
    def extract_misplaced(
        self,
        owner_of: Callable[[str], str],
        registration_home: Optional[Callable[[str], Optional[str]]] = None,
    ) -> List[RehomedItem]:
        """Remove and return stored items whose key is now owned by another node.

        Covers every node-local state kind: stored queries (input and
        rewritten), value-level tuples, ALTT entries and — when the caller
        provides the lifecycle layer's ``registration_home`` — replicated
        handle registrations whose proper home (the ring successor of the
        query's owner) is no longer this node.
        """
        items = self._extract(lambda key_text: owner_of(key_text) != self.address)
        if registration_home is not None:
            for query_id in list(self.registrations):
                if registration_home(query_id) != self.address:
                    items.append(
                        RehomedItem(
                            kind="registration",
                            key_text=query_id,
                            payload=self.registrations.pop(query_id),
                        )
                    )
        return items

    def extract_all(self) -> List[RehomedItem]:
        """Remove and return *every* stored item (graceful departure hand-off)."""
        items = self._extract(lambda key_text: True)
        for query_id in list(self.registrations):
            items.append(
                RehomedItem(
                    kind="registration",
                    key_text=query_id,
                    payload=self.registrations.pop(query_id),
                )
            )
        return items

    def _extract(self, should_move: Callable[[str], bool]) -> List[RehomedItem]:
        items: List[RehomedItem] = []

        def _extract_table(table: QueryTable, kind: str) -> None:
            for key_text in list(table.keys()):
                if not should_move(key_text):
                    continue
                for record in table.pop_key(key_text):
                    items.append(
                        RehomedItem(kind=kind, key_text=key_text, payload=record)
                    )

        _extract_table(self.input_queries, "input")
        _extract_table(self.rewritten_queries, "rewritten")

        for key_text in list(self.tuple_store.keys()):
            if not should_move(key_text):
                continue
            for record in self.tuple_store.remove_key(key_text):
                items.append(
                    RehomedItem(kind="tuple", key_text=key_text, payload=record)
                )

        for key_text in self.altt.keys():
            if not should_move(key_text):
                continue
            for entry in self.altt.pop_key(key_text):
                items.append(
                    RehomedItem(kind="altt", key_text=key_text, payload=entry)
                )
        return items

    def forget_address(self, address: str) -> int:
        """Eagerly drop every piece of RIC state naming a departed node.

        Called once per membership departure (graceful leave or crash).
        Covers the candidate table and the pending RIC round trips, the two
        places a node keeps RIC entries: a stored query state holds none
        (:meth:`_adopt_ric_info`).  Returns the number of invalidated entries.
        """
        dropped = self.candidate_table.invalidate_address(address)
        for op in self._pending_ric.values():
            known = op.known
            stale = [text for text in known if known[text].address == address]
            for key_text in stale:
                del known[key_text]
            dropped += len(stale)
        return dropped

    def accept_rehomed(self, items: Sequence[RehomedItem]) -> None:
        """Adopt the items another node handed over after a membership change.

        A disk backend buffers the tuple records and lands them in one write
        transaction at its next flush.
        """
        for item in items:
            if item.kind == "input":
                self.input_queries.add(item.key_text, item.payload)
            elif item.kind == "rewritten":
                self.rewritten_queries.add(item.key_text, item.payload)
            elif item.kind == "tuple":
                record = item.payload
                assert isinstance(record, StoredTuple)
                self.tuple_store.add(item.key_text, record.tuple, record.stored_at)
            elif item.kind == "altt":
                tup, received_at = item.payload
                self.altt.add(item.key_text, tup, received_at)
            elif item.kind == "registration":
                self.registrations[item.key_text] = item.payload
            else:
                raise EngineError(
                    f"cannot re-home item of unknown kind {item.kind!r} for key "
                    f"{item.key_text!r}; expected one of 'input', 'rewritten', "
                    "'tuple', 'altt' or 'registration'"
                )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def stored_input_queries(self) -> int:
        """Number of input queries currently stored at this node; O(1)."""
        return len(self.input_queries)

    @property
    def stored_rewritten_queries(self) -> int:
        """Number of rewritten queries currently stored at this node; O(1)."""
        return len(self.rewritten_queries)

    @property
    def stored_tuples(self) -> int:
        """Number of value-level tuples currently stored at this node; O(1)."""
        return len(self.tuple_store)

    @property
    def current_storage_items(self) -> int:
        """Rewritten queries plus tuples currently stored (the SL state)."""
        return self.stored_rewritten_queries + self.stored_tuples

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RJoinNode({self.address}, input={self.stored_input_queries}, "
            f"rewritten={self.stored_rewritten_queries}, tuples={self.stored_tuples})"
        )
