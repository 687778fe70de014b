"""The public RJoin engine facade.

:class:`RJoinEngine` assembles the whole system: the Chord ring, the
runtime transport (the deterministic ``sim`` kernel or the concurrent
``asyncio`` actor runtime, selected by ``RJoinConfig.runtime``), the
messaging API with traffic accounting, one
:class:`~repro.core.node.RJoinNode` per DHT node, the indexing strategy, and
the answer registry.  Library users interact with four operations:

* :meth:`RJoinEngine.submit` — register a continuous query (SQL text or a
  parsed :class:`~repro.sql.ast.Query`) and obtain a
  :class:`~repro.core.answers.QueryHandle` that accumulates its answers,
* :meth:`RJoinEngine.remove_query` — retract a previously submitted query,
  deleting its state on every node (see :mod:`repro.core.lifecycle`),
* :meth:`RJoinEngine.publish_batch` — insert tuples into the network and
  commit (:meth:`RJoinEngine.publish` is its one-row case),
* :meth:`RJoinEngine.run` — drain the simulated network (deliver every
  pending message).

Metrics (network traffic, query-processing load, storage load) are available
at any time through :attr:`traffic`, :attr:`loads` and
:meth:`metrics_summary`, matching the definitions of the paper's Section 8.
"""

from __future__ import annotations

import gc
import random
import weakref
from contextlib import contextmanager, nullcontext
from dataclasses import fields
from typing import (
    Any,
    ContextManager,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    NoReturn,
    Optional,
    Sequence,
    Union,
)

from repro.core.answers import QueryHandle
from repro.core.config import RJoinConfig
from repro.core.keys import tuple_index_keys
from repro.core.lifecycle import QueryLifecycleManager
from repro.core.membership import MembershipManager
from repro.core.node import NodeContext, RJoinNode
from repro.core.protocol import (
    AnswerMessage,
    QueryState,
    RetractQueryMessage,
    RicRequestMessage,
)
from repro.core.rewriting import QueryShape, RewriteMemo, shape_key
from repro.core.strategy import IndexingStrategy, make_strategy
from repro.data.schema import Catalog, RelationSchema
from repro.data.tuples import Tuple
from repro.dht.api import DHTMessagingService
from repro.dht.chord import ChordRing
from repro.dht.hashing import IdentifierSpace
from repro.dht.loadbalance import IdMovementBalancer
from repro.errors import (
    DuplicateNodeError,
    EngineError,
    QueryRegistrationError,
    SchemaError,
    UnknownRelationError,
)
from repro.metrics.collectors import ChurnStats, LoadTracker
from repro.net.messages import Message
from repro.net.runtime import EventHandle, make_transport
from repro.net.simulator import SimulationKernel
from repro.net.stats import TrafficStats
from repro.obs.context import Observability
from repro.obs.instruments import histogram_percentiles
from repro.sql.ast import Query, WindowSpec
from repro.sql.parser import parse_query


#: Width in bits of the engine's identifier space: node placement, key
#: hashing and the longest route (hence the ALTT retention Δ) follow from it.
IDENTIFIER_BITS = 48

#: Counters every :class:`RJoinNode` keeps for itself and the metrics summary
#: reports summed over all nodes that ever lived.
_NODE_COUNTERS = (
    "stale_one_hop_attempts",
    "ric_chains_started",
    "ric_questions_joined",
    "ric_questions_spared",
    "ric_chains_lost",
    "arc_sends_direct",
    "arc_sends_misdirected",
)


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Run the body (or, as a decorator, each call) with CPython's cyclic
    garbage collector switched off.

    The engine's draining calls allocate stored rewritten queries that live
    some hundred tuples (a window) and then die: too long for the young
    generations, too briefly for the old one, so a collector left on keeps
    re-scanning them.  What those calls make is acyclic -- reference
    counting alone frees it, which ``tests/core/test_collector_pause.py``
    holds -- so those scans find nothing.  The collector is process-wide:
    if it is enabled this turns it off for the body and back on at the end,
    also when the body raises; if the caller had already turned it off,
    nothing changes, which also makes a nested entry a no-op.  A cycle made
    inside the body is collected at the first collection after it.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _closed(*_args: Any) -> NoReturn:
    """What a closed engine's nodes call instead of the engine."""
    raise EngineError("the engine is closed")


class RJoinEngine:
    """A simulated DHT network running the RJoin algorithm."""

    def __init__(
        self,
        config: Optional[RJoinConfig] = None,
        catalog: Optional[Catalog] = None,
        strategy: Optional[IndexingStrategy] = None,
    ) -> None:
        self.config = config or RJoinConfig()
        self.catalog = catalog or Catalog()
        self._rng = random.Random(self.config.seed)

        # Substrates -------------------------------------------------------
        self.space = IdentifierSpace(IDENTIFIER_BITS)
        # The clocks below close over the transport, not the engine, so they
        # make no reference cycle through it.
        transport = self.transport = make_transport(self.config.runtime)
        #: The tracing/metrics facade, or ``None`` when observability is off
        #: (the instrumented paths then compile down to a single None check).
        self.obs: Optional[Observability] = None
        if self.config.observability == "on":
            self.obs = Observability(
                clock=lambda: transport.now,
                wall_clock=transport.wall_clock_spans,
                trace_path=self.config.trace_path,
            )
        self.traffic = TrafficStats()
        self.loads = LoadTracker()
        self.ring = ChordRing.create_network(
            self.config.num_nodes, space=self.space, seed=self.config.seed
        )
        self.api = DHTMessagingService(
            ring=self.ring,
            transport=self.transport,
            traffic=self.traffic,
            hop_delay=self.config.hop_delay,
            delay_jitter=self.config.delay_jitter,
            rng=random.Random(self.config.seed + 1),
            observability=self.obs,
        )
        self.strategy = strategy or make_strategy(self.config.strategy)

        # Engine-wide counters and the query lifecycle, which every node
        # writes to and asks ------------------------------------------------
        self.churn = ChurnStats()
        self.nodes: Dict[str, RJoinNode] = {}
        self._handles: Dict[str, QueryHandle] = {}
        self.lifecycle = QueryLifecycleManager(
            ring=self.ring,
            nodes=self.nodes,
            handles=self._handles,
            churn=self.churn,
            clock=lambda: transport.now,
            enabled=self.config.owner_failover,
        )

        # Application layer --------------------------------------------------
        # The ALTT retention Δ: the eventual-completeness theorem needs an
        # overestimate of the maximum transit time, and four of them is one
        # comfortably.  With no delay nothing is ever in transit, so the
        # table keeps its tuples for ever.
        max_transit = self.api.max_transit_delay()
        altt_delta = 4.0 * max_transit if max_transit > 0 else None
        self._context = NodeContext(
            api=self.api,
            space=self.space,
            config=self.config,
            strategy=self.strategy,
            loads=self.loads,
            catalog=self.catalog,
            rng=random.Random(self.config.seed + 2),
            clock=lambda: transport.now,
            sequence_clock=self._sequence_clock,
            time_clock=self._time_clock,
            rate_oracle=self._oracle_rate,
            collect_answer=self._collect_answer,
            altt_delta=altt_delta,
            churn=self.churn,
            lifecycle=self.lifecycle,
            obs=self.obs,
        )
        for chord_node in self.ring.nodes:
            rjoin_node = RJoinNode(chord_node.address, self._context)
            self.nodes[chord_node.address] = rjoin_node
            self.api.register_handler(chord_node.address, rjoin_node.handle_envelope)

        # Load balancing -------------------------------------------------------
        self.balancer: Optional[IdMovementBalancer] = None
        if self.config.id_movement:
            self.balancer = IdMovementBalancer(self.ring)

        # Dynamic membership ---------------------------------------------------
        # Handle registrations re-home through the lifecycle layer's notion
        # of "home" (successor of the query's owner), not a key hash.
        self.membership = MembershipManager(
            ring=self.ring,
            nodes=self.nodes,
            churn=self.churn,
            registration_home=self.lifecycle.registration_home,
        )
        self._churn_rng = random.Random(self.config.seed + 3)
        self._next_node_index = len(self.ring)
        #: What the nodes that have since departed had counted; keeps the
        #: engine-wide counters monotone under churn.
        self._departed_counts: Dict[str, int] = dict.fromkeys(_NODE_COUNTERS, 0)
        #: Join/leave operations requested while the network was mid-drain;
        #: applied at the next quiescent point (see :meth:`run`).
        self._pending_membership: List[tuple] = []

        # Bookkeeping -------------------------------------------------------
        #: Input query shape (:func:`~repro.core.rewriting.shape_key`) -> the
        #: one :class:`~repro.core.rewriting.QueryShape` its states carry:
        #: one entry per shape some live state has, freed with the last one.
        self._shapes: "weakref.WeakValueDictionary[Hashable, QueryShape]" = (
            weakref.WeakValueDictionary()
        )
        #: The rewrites every plan of those shapes shares; emptied with each
        #: removed query, since its keys hold plans and so their shapes.
        self._rewrites = RewriteMemo()
        self._query_counter = 0
        self._sequence = 0
        #: The first tuple published since the last completed :meth:`run`,
        #: while any may still be in flight; ``None`` once the network has
        #: drained them all.
        self._undrained_from: Optional[Tuple] = None
        self._published = 0
        self._oracle_counts: Dict[str, int] = {}
        #: Queries ever submitted (handles of removed queries leave
        #: :attr:`_handles` but stay counted here).
        self._submitted_total = 0
        #: Answers delivered to queries that have since been removed.
        self._retired_answers = 0

    # ------------------------------------------------------------------
    # schema management
    # ------------------------------------------------------------------
    def register_relation(
        self, name: str, attributes: Sequence[str]
    ) -> RelationSchema:
        """Register a relation schema with the engine's catalog."""
        return self.catalog.add_relation(name, attributes)

    def register_catalog(self, catalog: Catalog) -> None:
        """Merge every schema of ``catalog`` into the engine's catalog."""
        for schema in catalog:
            self.catalog.add(schema)

    # ------------------------------------------------------------------
    # continuous queries
    # ------------------------------------------------------------------
    def submit(
        self,
        query: Union[str, Query],
        owner: Optional[str] = None,
        window: Optional[WindowSpec] = None,
        process: bool = True,
    ) -> QueryHandle:
        """Submit a continuous query and return its :class:`QueryHandle`.

        Parameters
        ----------
        query:
            SQL text or an already built :class:`~repro.sql.ast.Query`.
        owner:
            Address of the submitting node; a random node is used by default.
        window:
            Optional sliding-window specification overriding the query's own.
            With ``tuple_gc_window`` set, the query's window must have that
            mode and at most that size (:class:`QueryRegistrationError`
            otherwise).
        process:
            Whether to drain the network immediately (deliver the indexing
            messages).  Batch callers can pass ``False`` and call
            :meth:`run` once at the end.
        """
        if isinstance(query, str):
            parsed = parse_query(query, catalog=self.catalog)
        else:
            parsed = query.validate(self.catalog if len(self.catalog) else None)
        if window is not None:
            parsed = parsed.with_window(window)
        horizon = self.config.tuple_gc_window
        own = parsed.window
        if horizon is not None and (
            own is None or own.mode != horizon.mode or own.size > horizon.size
        ):
            # The GC ticks drop every stored tuple older than the horizon, so
            # a query that still needs one would silently lose its answers.
            raise QueryRegistrationError(
                f"tuple_gc_window ({horizon}) collects stored tuples older "
                f"than itself; a query with {own or 'no window'} needs some "
                "of them, so it must use a window of the same mode and at "
                "most that size"
            )
        if owner is None:
            owner = self._rng.choice(self.ring.addresses)
        elif owner not in self.nodes:
            raise QueryRegistrationError(f"unknown owner node {owner!r}")

        self._query_counter += 1
        query_id = f"{owner}#{self._query_counter}"
        insertion_time = self.transport.now
        handle = QueryHandle(
            query_id=query_id,
            query=parsed,
            owner=owner,
            insertion_time=insertion_time,
        )
        self._handles[query_id] = handle
        self._submitted_total += 1
        self.lifecycle.register(handle)
        key = shape_key(parsed)
        shape = self._shapes.get(key)
        if shape is None:
            shape = self._shapes[key] = QueryShape(self._rewrites)
        state = QueryState(
            query_id=query_id,
            owner=owner,
            query=parsed,
            insertion_time=insertion_time,
            is_input=True,
            shape=shape,
        )
        with self._operation("submit", f"sub-{query_id}", owner):
            self.nodes[owner].submit_query(state)
        if process:
            self.run()
        return handle

    def remove_query(self, query_id: str) -> int:
        """Retract a continuous query; returns the number of purged records.

        The network is drained first (so no rewritten query or answer of
        ``query_id`` is in flight), then a
        :class:`~repro.core.protocol.RetractQueryMessage` is sent from the
        owner to every live node — each deletes the query's local state:
        its input-query record, every rewritten query derived from it and
        any RIC round trip still pending on its behalf.  The engine-side
        handle is retired (its delivered answers stay counted in
        :attr:`total_answers` and remain readable on the handle object the
        caller holds), its replicated registration is dropped, and — once
        no active query remains — every node vacuums the state that only
        existed to serve queries: stored tuples and ALTT entries published
        before now, plus the candidate-table RIC caches.

        Removal leaves zero orphaned records on any node; the
        ``orphaned_state_records`` metric is the regression probe for that
        invariant.
        """
        handle = self._handles.get(query_id)
        if handle is None:
            raise EngineError(
                f"unknown (or already removed) query id {query_id!r}"
            )
        if self.transport.is_draining:
            raise EngineError(
                "remove_query is a synchronous engine operation; it must "
                "not be called from inside a network drain"
            )
        self.run()
        self.lifecycle.mark_retracted(query_id)
        origin = handle.owner
        if origin not in self.nodes:
            # Failover-disabled runs can retire queries whose owner has
            # departed; any live node can drive the retraction.
            origin = self.ring.owner_of_key(query_id).address
        retraction = RetractQueryMessage(query_id=query_id, origin=origin)
        retracted_before = self.churn.records_retracted
        with self._operation("retract", f"rm-{query_id}", origin):
            for address in self.ring.addresses:
                self.api.send_direct(origin, retraction, address)
        self.run()
        purged = self.churn.records_retracted - retracted_before
        self.lifecycle.deregister(query_id)
        del self._handles[query_id]
        self._retired_answers += handle.count
        self.churn.queries_removed += 1
        self._rewrites.clear()
        if not self._handles:
            for node in self.nodes.values():
                self.churn.records_vacuumed += node.vacuum(self.transport.now)
        return purged

    # ------------------------------------------------------------------
    # tuple publication
    # ------------------------------------------------------------------
    def publish(
        self,
        relation: str,
        values: Sequence[object],
        publisher: Optional[str] = None,
        process: bool = True,
    ) -> Tuple:
        """Publish a tuple of ``relation`` into the network (Procedure 1).

        A one-row :meth:`publish_batch`: the same validation, the same
        routing and the same commit.
        """
        (tup,) = self._publish([(relation, values)], publisher, process, "publish")
        return tup

    def publish_batch(
        self,
        rows: Iterable[tuple],
        publisher: Optional[str] = None,
        process: bool = True,
    ) -> List[Tuple]:
        """Publish a whole batch of ``(relation, values)`` pairs at once.

        The engine's one ingestion path (:meth:`publish` is its one-row
        case): tuples are grouped per publishing node and sent off in one go
        each (:meth:`~repro.core.node.RJoinNode.publish_tuples`), every
        indexing key hashed once for the batch (memoised by the identifier
        space).  With ``process`` the call commits: the network is drained a
        single time at the end, every node's store is flushed, and the
        garbage-collection / rebalancing hooks fire once per crossed
        scheduling boundary rather than once per tuple.

        ``publisher`` fixes the publishing node for the whole batch; by
        default each row draws a random publisher.
        """
        return self._publish(rows, publisher, process, "publish_batch")

    @_collector_paused()
    def _publish(
        self,
        rows: Iterable[tuple],
        publisher: Optional[str],
        process: bool,
        operation: str,
    ) -> List[Tuple]:
        """Stage, route and commit ``rows`` (see :meth:`publish_batch`).

        ``operation`` names the public method in validation errors.
        """
        if publisher is not None and publisher not in self.nodes:
            raise EngineError(f"unknown publisher node {publisher!r}")
        rows = self._checked_rows(rows, operation)
        published_before = self._published
        published: List[Tuple] = []
        by_publisher: Dict[str, List[Tuple]] = {}
        for relation, values in rows:
            address = publisher or self._rng.choice(self.ring.addresses)
            tup = self._build_tuple(relation, values, address)
            by_publisher.setdefault(address, []).append(tup)
            published.append(tup)
        for address, tuples in by_publisher.items():
            # One root span per publisher group, named after its first
            # sequence number: the whole fan-out of the group
            # shares one trace.
            trace_id = f"pub-{tuples[0].sequence}"
            with self._operation("publish", trace_id, address):
                self.nodes[address].publish_tuples(tuples)
        self._published += len(published)
        if process:
            self.run()
            # One write transaction per node per commit: disk backends buffer
            # their inserts, so the whole drain's fan-out lands with a single
            # flush here instead of a lazy flush on the next probe.
            for node in self.nodes.values():
                node.tuple_store.flush()
        crossed = self._crossed_boundary
        if self.config.tuple_gc_window is not None and crossed(
            published_before, self._published, self.config.gc_every_tuples
        ):
            for node in self.nodes.values():
                node.gc_expired_state()
        if self.balancer is not None and crossed(
            published_before, self._published, self.config.rebalance_every_tuples
        ):
            self.rebalance()
        return published

    def _checked_rows(
        self, rows: Iterable[tuple], operation: str
    ) -> List[tuple]:
        """Validate ``(relation, values)`` rows without touching engine state.

        Every row must be a two-element ``(relation, values)`` pair naming a
        registered relation, with ``values`` a sequence of the schema's arity.
        Malformed rows raise a descriptive :class:`EngineError` (instead of the
        bare ``ValueError`` tuple unpacking would produce), unknown relations
        raise :class:`UnknownRelationError` and arity mismatches raise
        :class:`SchemaError` — all *before* any sequence number is assigned or
        any oracle count is recorded, so a bad row mid-batch cannot leave
        phantom state behind.
        """
        checked: List[tuple] = []
        for position, row in enumerate(rows):
            try:
                relation, values = row
            except (TypeError, ValueError):
                raise EngineError(
                    f"{operation} row {position} must be a (relation, values) "
                    f"pair; got {row!r}"
                ) from None
            if relation not in self.catalog:
                raise UnknownRelationError(
                    f"relation {relation!r} is not registered with the engine"
                )
            schema = self.catalog.get(relation)
            try:
                values = tuple(values)
            except TypeError:
                raise EngineError(
                    f"{operation} row {position}: values for relation "
                    f"{relation!r} must be a sequence; got {values!r}"
                ) from None
            if len(values) != schema.arity:
                raise SchemaError(
                    f"{operation} row {position}: tuple for relation "
                    f"{relation!r} has {len(values)} values but the schema "
                    f"has arity {schema.arity}"
                )
            checked.append((relation, values))
        return checked

    def _build_tuple(
        self, relation: str, values: Sequence[object], publisher: str
    ) -> Tuple:
        """Sequence, construct and oracle-record one publication."""
        schema = self.catalog.get(relation)
        # Construct (and schema-validate) first: the sequence counter and the
        # oracle counts only advance once the tuple is known to be well formed.
        tup = Tuple.from_schema(
            schema,
            values,
            pub_time=self.transport.now,
            sequence=self._sequence + 1,
            publisher=publisher,
        )
        self._sequence += 1
        if self._undrained_from is None:
            self._undrained_from = tup
        self._record_oracle(tup, schema)
        return tup

    def _sequence_clock(self) -> int:
        """The tuple-window clock the nodes judge expiry against.

        While published tuples are undrained it reads the first of them, not
        the newest: a ``publish_batch`` burst is in flight all at once, and a
        rewritten query whose window closes inside the burst can still be
        completed by an earlier tuple of it that has not arrived yet.
        """
        if self._undrained_from is not None:
            return self._undrained_from.sequence
        return self._sequence

    def _time_clock(self) -> float:
        """The time-window clock the nodes judge expiry against.

        The same rule as :meth:`_sequence_clock`: while tuples are undrained
        it reads the first one's publication time, not the transport clock,
        which deliveries have moved past it while the rest of its burst is
        still in flight.
        """
        if self._undrained_from is not None:
            return self._undrained_from.pub_time
        return self.transport.now

    # ------------------------------------------------------------------
    # simulation control
    # ------------------------------------------------------------------
    @_collector_paused()
    def run(self) -> int:
        """Deliver every pending message; returns the number of events processed.

        Ring-mutating operations requested while messages were in flight
        (graceful joins and leaves — see :meth:`add_node` /
        :meth:`remove_node`) are applied once the network is quiescent, so
        ownership never changes under a message that was routed to the old
        owner.  Crashes are the exception: they take effect immediately
        (see :meth:`crash_node`).
        """
        processed = self.transport.drain()
        while self._pending_membership:
            ops, self._pending_membership = self._pending_membership, []
            for op in ops:
                self._apply_membership_op(op)
            processed += self.transport.drain()
        self.churn.backpressure_escapes = self.transport.backpressure_escapes
        self._undrained_from = None
        return processed

    def tick(self, delta: float = 1.0) -> None:
        """Advance the simulated clock without publishing anything."""
        self.transport.advance_by(delta)

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.transport.now

    @property
    def runtime(self) -> str:
        """Name of the runtime transport this engine runs on (``sim`` / ``asyncio``)."""
        return self.transport.name

    @property
    def kernel(self) -> SimulationKernel:
        """The deterministic event kernel (``sim`` runtime only).

        Tests and oracle harnesses use it for event-level surgery; on a
        concurrent runtime there is no kernel and this raises
        :class:`EngineError`.
        """
        transport = self.transport
        if not isinstance(transport, SimulationKernel):
            raise EngineError(
                f"the {transport.name!r} runtime has no simulation "
                "kernel; event-level control is a 'sim' runtime feature"
            )
        return transport

    def close(self) -> None:
        """Shut the engine down: drain the transport and release resources.

        Idempotent.  Closes every node's tuple store (sqlite connections,
        log files) and stops the runtime's actors/loop.  The engine must
        not be used afterwards; its handles and counters stay readable.  A
        closed engine is no reference cycle, so dropping it frees it at
        once: the messaging layer forgets its handlers (bound to the nodes)
        and the transport its delivery callback, the query lifecycle (which
        the nodes' context holds) forgets the nodes, and the context stops
        calling back into the engine.
        """
        self.transport.shutdown()
        self._rewrites.clear()
        for node in self.nodes.values():
            node.tuple_store.close()
        if self.obs is not None:
            self.obs.close()
        self.api.close()
        self.lifecycle.nodes = {}
        context = self._context
        context.sequence_clock = context.time_clock = _closed
        context.rate_oracle = context.collect_answer = _closed

    def write_trace(self, path: str) -> int:
        """Dump the spans recorded so far as JSONL; returns the span count.

        Only meaningful with ``observability="on"`` and no ``trace_path``
        (spans retained in memory); with a ``trace_path`` the spans already
        stream to that file.
        """
        if self.obs is None:
            raise EngineError(
                "observability is off; enable it with "
                "RJoinConfig(observability='on') to record spans"
            )
        return self.obs.write_trace(path)

    def __enter__(self) -> "RJoinEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def published_tuples(self) -> int:
        """Number of tuples published so far."""
        return self._published

    # ------------------------------------------------------------------
    # answers
    # ------------------------------------------------------------------
    def _collect_answer(self, message: AnswerMessage, delivered_at: float) -> None:
        """Hand every answer of a delivered envelope to its query's handle."""
        handles = self._handles
        stamp = (message.produced_at, delivered_at, message.producer)
        collected = 0
        for query_id, values in message.answers:
            handle = handles.get(query_id)
            if handle is None:
                continue
            for answer in values:
                handle.add_answer(answer, stamp)
            collected += len(values)
        if self.obs is not None and collected:
            self.obs.record_answer_latency(delivered_at, collected)

    def _operation(
        self, name: str, trace_id: str, node: str
    ) -> ContextManager[None]:
        """A root span for an engine-level operation (no-op when obs is off)."""
        if self.obs is None:
            return nullcontext()
        return self.obs.operation(name, trace_id, node)

    @property
    def handles(self) -> Mapping[str, QueryHandle]:
        """All submitted queries, keyed by query id."""
        return dict(self._handles)

    def handle(self, query_id: str) -> QueryHandle:
        """The handle of a previously submitted query."""
        try:
            return self._handles[query_id]
        except KeyError:
            raise EngineError(f"unknown query id {query_id!r}") from None

    @property
    def total_answers(self) -> int:
        """Total answers delivered across every submitted query.

        Includes the answers that queries removed through
        :meth:`remove_query` had received before their retraction.
        """
        return self._retired_answers + sum(
            handle.count for handle in self._handles.values()
        )

    # ------------------------------------------------------------------
    # rate oracle (used by the Worst baseline and by tests)
    # ------------------------------------------------------------------
    def _record_oracle(self, tup: Tuple, schema: RelationSchema) -> None:
        for key in tuple_index_keys(tup, schema):
            self._oracle_counts[key.text] = self._oracle_counts.get(key.text, 0) + 1

    def _oracle_rate(self, key_text: str) -> float:
        return float(self._oracle_counts.get(key_text, 0))

    # ------------------------------------------------------------------
    # garbage collection and load balancing hooks
    # ------------------------------------------------------------------
    @staticmethod
    def _crossed_boundary(before: int, after: int, every: int) -> bool:
        """Whether a ``every``-tuples scheduling boundary lies in ``(before, after]``."""
        return after // every > before // every

    def rebalance(self) -> int:
        """Run one id-movement balancing round; returns the number of moves."""
        if self.balancer is None:
            raise EngineError("id movement is disabled in this configuration")
        self.run()  # do not move nodes while messages are in flight
        loads = {
            address: float(
                node.current_storage_items
                + self.loads.node(address).query_processing_load
            )
            for address, node in self.nodes.items()
        }
        moves = self.balancer.rebalance(loads)
        if moves:
            self.membership.rehome_misplaced(kind="move")
        return len(moves)

    # ------------------------------------------------------------------
    # dynamic membership: join / graceful leave / crash
    # ------------------------------------------------------------------
    def add_node(
        self, address: Optional[str] = None, node_id: Optional[int] = None
    ) -> str:
        """A new node joins the live ring; returns its address.

        The joining node takes over part of its successor's key range, and
        the state stored under those keys is re-homed onto it (counted in
        :attr:`churn`).  By default the node gets a fresh ``node-{index}``
        address and a uniformly random identifier, matching how the founding
        ring was placed.  When called while messages are in flight (e.g.
        from a kernel-scheduled churn event) the join is deferred to the
        next quiescent point so in-flight messages still reach the owner
        they were routed to.
        """
        if address is None:
            address = self._generate_address()
        elif self.ring.has_address(address):
            raise DuplicateNodeError(
                f"a node with address {address!r} already participates in the ring"
            )
        if self.transport.is_draining:
            self._pending_membership.append(("join", address, node_id))
            return address
        self.run()
        self._join_now(address, node_id)
        return address

    def remove_node(self, address: Optional[str] = None) -> str:
        """A node leaves the ring gracefully; returns the departed address.

        A cooperative departure: pending messages are drained first and the
        node hands its entire state (stored tuples, ALTT entries, input and
        rewritten queries) to the nodes now owning the keys, so no state is
        lost.  :meth:`crash_node` is the abrupt kind.  Without an explicit
        ``address`` a random live node departs.
        """
        address = self._resolve_victim(address, operation="remove")
        if self.transport.is_draining:
            self._pending_membership.append(("leave", address))
            return address
        self.run()
        self._leave_now(address)
        return address

    def crash_node(self, address: Optional[str] = None) -> str:
        """A node fails abruptly; returns the crashed address.

        The node's entire state is destroyed (accounted as lost in
        :attr:`churn`), and every message still in flight towards the dead
        address is destroyed by the network — except that answers of
        queries the victim owned go on to its successor, and a destroyed
        RIC chain is handed back to the node that started it, which asks
        again
        (:meth:`~repro.core.node.RJoinNode.ric_chain_lost`).  Unlike joins
        and leaves a crash takes effect immediately, even mid-drain — that
        is the point of modelling it.
        """
        address = self._resolve_victim(address, operation="crash")
        node = self.nodes.pop(address)
        # Owner failover: the survivor is the crashed node's ring successor —
        # exactly where submit() replicated the handle registrations — and it
        # must be resolved while the ring still knows the victim's position.
        owned, successor = self._failover_target(address)
        self.ring.remove_node(address)
        self.api.unregister_handler(address)
        owned_set = set(owned)
        lost_chains: List[RicRequestMessage] = []

        def reroute(message: Message) -> Optional[tuple[str, Message, int]]:
            """Answers of still-owned queries go on to the successor; a RIC
            chain is lost like the rest, and noted for the hand-back below."""
            if isinstance(message, RicRequestMessage):
                lost_chains.append(message)
            if successor is None or not isinstance(message, AnswerMessage):
                return None
            kept = message.only(owned_set)
            if not kept.answers:
                return None
            return successor, kept, kept.count

        self.churn.answers_rerouted += self.api.redirect_in_flight(address, reroute)
        self.membership.discard(node)
        if owned and successor is not None:
            self.lifecycle.failover_owner(address, successor)
        self.churn.replica_repairs += self.lifecycle.repair_replicas(address)
        self._forget_departed(address, node)
        # Only now, so that the fresh chains meet tables that no longer name
        # the victim.  A chain whose origin is gone too has nobody waiting.
        for request in lost_chains:
            origin = self.nodes.get(request.origin)
            if origin is not None:
                origin.ric_chain_lost(request)
        return address

    def _failover_target(self, address: str) -> tuple:
        """``(owned query ids, successor address)`` for a departing owner.

        Resolved on the *pre-departure* ring; the successor is ``None``
        when failover is disabled, the node owns no queries, or the ring is
        degenerate (single node).
        """
        if not self.lifecycle.enabled:
            return [], None
        owned = self.lifecycle.queries_owned_by(address)
        if not owned:
            return [], None
        chord_node = self.ring.node_by_address(address)
        successor = self.ring.successor_of(chord_node)
        if successor.address == address:
            return owned, None
        return owned, successor.address

    def schedule_membership_op(
        self,
        kind: str,
        delay: float = 0.0,
        address: Optional[str] = None,
        min_nodes: int = 2,
    ) -> EventHandle:
        """Schedule a membership change on the runtime transport.

        The operation — a ``join``, a graceful ``leave`` or a ``crash`` —
        fires ``delay`` (logical) time units from now, in the middle of
        whatever traffic is then in flight, which is exactly how real churn
        arrives.  A departure turns into a no-op when the ring has shrunk
        to ``min_nodes`` by the time it triggers.  Returns a cancellable
        event handle.
        """
        if kind not in ("join", "leave", "crash"):
            raise EngineError(
                f"unknown membership operation {kind!r}; "
                "expected 'join', 'leave' or 'crash'"
            )
        return self.transport.schedule_in(
            delay, self._fire_membership_op, kind, address, min_nodes
        )

    def _fire_membership_op(
        self, kind: str, address: Optional[str], min_nodes: int
    ) -> None:
        """Kernel callback: apply (or queue) one scheduled membership change."""
        if kind == "join":
            self.add_node(address)
            return
        # Leaves queued earlier in this drain have not shrunk the ring yet;
        # count them so a burst of events cannot undershoot ``min_nodes``.
        pending_leaves = sum(1 for op in self._pending_membership if op[0] == "leave")
        if len(self.ring) - pending_leaves <= max(min_nodes, 1):
            return
        if address is not None and not self.ring.has_address(address):
            return
        if kind == "crash":
            self.crash_node(address)
        else:
            self.remove_node(address)

    def _apply_membership_op(self, op: tuple) -> None:
        """Apply one deferred join/leave at a quiescent point."""
        kind = op[0]
        if kind == "join":
            _, address, node_id = op
            if not self.ring.has_address(address):
                self._join_now(address, node_id)
        elif kind == "leave":
            _, address = op
            if self.ring.has_address(address) and len(self.ring) > 1:
                self._leave_now(address)

    def _join_now(self, address: str, node_id: Optional[int]) -> None:
        if node_id is None:
            node_id = self.ring.random_free_identifier(self._churn_rng)
        chord_node = self.ring.add_node(address, node_id)
        rjoin_node = RJoinNode(address, self._context)
        self.nodes[address] = rjoin_node
        self.api.register_handler(address, rjoin_node.handle_envelope)
        # Only the new node's successor can hold keys the newcomer now owns.
        successor = self.ring.successor_of(chord_node)
        displaced = [] if successor.address == address else [successor.address]
        self.membership.rehome_misplaced(displaced, kind="join")

    def _leave_now(self, address: str) -> None:
        node = self.nodes.pop(address)
        # A cooperative departure re-registers the leaver's queries on its
        # successor just like a crash does — only without anything to lose.
        owned, successor = self._failover_target(address)
        self.ring.remove_node(address)
        self.api.unregister_handler(address)
        if owned and successor is not None:
            self.lifecycle.failover_owner(address, successor)
        self.membership.handoff(node)
        self._forget_departed(address, node)

    def _forget_departed(self, address: str, node: RJoinNode) -> None:
        """Purge every trace of a departed node from the survivors.

        RIC state pointing at the departed address — candidate-table
        entries and arcs, pending RIC round trips; a stored query keeps
        none — is invalidated *eagerly* (churn-aware RIC): the liveness check in
        ``RJoinNode._route`` would reject it anyway, but only after a stale
        one-hop attempt per affected message.  The
        departed node's store is also closed so backends holding external
        resources (sqlite connections) release them promptly.
        """
        for survivor in self.nodes.values():
            survivor.forget_address(address)
        for counter in _NODE_COUNTERS:
            self._departed_counts[counter] += getattr(node, counter)
        node.tuple_store.close()

    def _resolve_victim(self, address: Optional[str], operation: str) -> str:
        if len(self.ring) <= 1:
            raise EngineError(f"cannot {operation} the only node of the ring")
        if address is None:
            return self._churn_rng.choice(self.ring.addresses)
        if address not in self.nodes:
            raise EngineError(f"cannot {operation} unknown node {address!r}")
        return address

    def _generate_address(self) -> str:
        while True:
            address = f"node-{self._next_node_index}"
            self._next_node_index += 1
            if address not in self.nodes and not self.ring.has_address(address):
                return address

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def storage_distribution(self, current: bool = True) -> List[int]:
        """Per-node storage load, sorted decreasing.

        ``current=True`` reads the live node state (reflecting garbage
        collection and id movement); ``current=False`` returns the cumulative
        storage load recorded by the load tracker.
        """
        if current:
            return sorted(
                (node.current_storage_items for node in self.nodes.values()),
                reverse=True,
            )
        return self.loads.ranked_storage_load()

    def qpl_distribution(self) -> List[int]:
        """Per-node query-processing load, sorted decreasing."""
        return self.loads.ranked_query_processing_load()

    def metrics_summary(self) -> Dict[str, float]:
        """A flat summary of the paper's three metrics plus answer counts."""
        num_nodes = len(self.ring)
        return {
            "nodes": float(num_nodes),
            "published_tuples": float(self._published),
            "submitted_queries": float(self._submitted_total),
            "active_queries": float(len(self._handles)),
            "total_messages": float(self.traffic.total_messages),
            "ric_messages": float(self.traffic.total_ric_messages),
            "messages_per_node": self.traffic.messages_per_node(num_nodes),
            "ric_messages_per_node": self.traffic.ric_messages_per_node(num_nodes),
            "total_qpl": float(self.loads.total_query_processing_load),
            "qpl_per_node": self.loads.qpl_per_node(num_nodes),
            "total_storage": float(self.loads.total_storage_load),
            "storage_per_node": self.loads.storage_per_node(num_nodes),
            "current_storage": float(
                sum(node.current_storage_items for node in self.nodes.values())
            ),
            "answers": float(self.total_answers),
            "participating_nodes": float(self.loads.participating_nodes()),
            "dropped_messages": float(self.api.dropped_messages),
            # Churn, query lifecycle and matching counters ------------------
            **{
                field.name: float(getattr(self.churn, field.name))
                for field in fields(self.churn)
            },
            # Per-node counters: stale one-hop sends, the RIC path and the
            # routing cache ------------------------------------------------
            **{counter: self._node_total(counter) for counter in _NODE_COUNTERS},
            # Observability (latency/load histograms; zeros when off) ------
            **histogram_percentiles(
                self.obs.histograms if self.obs is not None else None
            ),
        }

    def _node_total(self, counter: str) -> float:
        """One of :data:`_NODE_COUNTERS` summed over live and departed nodes."""
        return float(
            self._departed_counts[counter]
            + sum(getattr(node, counter) for node in self.nodes.values())
        )

    @property
    def store_backend(self) -> str:
        """Name of the tuple-store backend every node of this engine uses."""
        return self.config.store_backend

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RJoinEngine(nodes={len(self.ring)}, strategy={self.strategy.name}, "
            f"queries={len(self._handles)}, tuples={self._published})"
        )
