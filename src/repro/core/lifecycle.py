"""Query lifecycle management: retraction and owner failover.

The engine used to support exactly one lifecycle transition — submission
(:meth:`~repro.core.engine.RJoinEngine.submit`).  Continuous queries could
never be *retracted*, and a crashed owner silently lost every answer its
handles would have received.  This module owns everything that happens to a
query after submission:

* **Removal** — :meth:`repro.core.engine.RJoinEngine.remove_query`
  (backed by this manager's tombstone and registration bookkeeping) drives
  the retraction of a continuous query through the ring: a
  :class:`~repro.core.protocol.RetractQueryMessage` is broadcast from the
  owner to every live node (real, traffic-accounted messages), each node
  purges the query's state on delivery (its input-query record, every
  rewritten query it spawned, pending RIC round trips), and — once no
  active query remains — the network-wide *vacuum* reclaims the state that
  only existed to serve queries: stored value-level tuples and ALTT entries
  published strictly before "now" (no future query can ever consume them,
  because the trigger condition requires ``pubT(t) >= insT(q)``) and the
  candidate-table caches.  A tombstone set guards against resurrection:
  query state arriving after its retraction is dropped and counted as an
  ``orphaned_state_records`` probe (zero in healthy runs).

* **Owner failover** — on submission (when
  :attr:`~repro.core.config.RJoinConfig.owner_failover` is enabled) the
  query's *handle registration* — owner address plus the answer dedup
  watermark — is replicated as a :class:`HandleRegistration` onto the ring
  successor of the owner: exactly the node that inherits the owner's key
  range if the owner crashes.  ``crash_node()`` on an owner then triggers
  re-registration on that survivor (the replica already holds the
  registration — that is the point of replicating it), in-flight answers to
  the dead owner are re-routed to the new owner instead of being destroyed,
  and answers produced later resolve the *current* owner at emission time.
  Registrations are node-local state like any other kind: the
  :class:`~repro.core.membership.MembershipManager` re-homes them whenever
  ring mutations move the successor of an owner (joins, graceful leaves,
  crashes of the replica itself, id movement).

* **Shared rewritten-query state** — canonically equal rewritten states
  (same residual query, window state and insertion time — equal modulo
  query id) collapse into one stored record with a
  subscriber list (see :class:`repro.core.protocol.QueryState`), and both
  transitions above become *per-subscriber*: retraction detaches only the
  removed query's subscriptions (promoting a surviving subscriber to
  primary when the record's nominal owner is retracted — the record keeps
  serving its co-subscribers), and the answer path resolves the live owner
  through :meth:`QueryLifecycleManager.resolve_owner` for each subscriber
  independently, so an owner crash re-routes exactly the crashed
  subscriber's answer stream and leaves the others untouched.

Everything the subsystem does is measured through the lifecycle counters of
:class:`~repro.metrics.collectors.ChurnStats` (``queries_removed``,
``orphaned_state_records``, ``failover_reregistrations``,
``answers_rerouted`` plus the retraction/vacuum record counts), surfaced in
``RJoinEngine.metrics_summary``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set

from repro.dht.chord import ChordRing
from repro.errors import EngineError
from repro.metrics.collectors import ChurnStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.answers import QueryHandle
    from repro.core.node import RJoinNode


@dataclass
class HandleRegistration:
    """The replicated registration of one continuous query's handle.

    Lives on the ring successor of the query's owner (the node that takes
    over the owner's key range on a crash).  ``owner`` is the address
    answers must be shipped to; ``watermark`` is the number of answers known
    to be delivered as of the last replication sync.  Today's failover path
    re-routes in-flight answers exactly once by construction (cancel +
    re-send), so the watermark is bookkeeping: it records the dedup floor a
    message-level re-delivery scheme would have to resume from, and tests
    assert it stays in sync with the handle across failovers.
    """

    query_id: str
    owner: str
    watermark: int = 0
    replicated_at: float = 0.0


class QueryLifecycleManager:
    """Owns continuous-query state transitions beyond submission.

    The manager is engine-internal: :class:`~repro.core.engine.RJoinEngine`
    delegates ``remove_query`` and the owner-failover part of
    ``crash_node`` / ``remove_node`` to it.  It keeps no private location
    table for the replicas — a registration's home is always derivable from
    the live ring (:meth:`registration_home`), which is what lets the
    membership layer re-home registrations like any other state kind.
    """

    def __init__(
        self,
        ring: ChordRing,
        nodes: Dict[str, "RJoinNode"],
        handles: Dict[str, "QueryHandle"],
        churn: ChurnStats,
        clock: Callable[[], float],
        enabled: bool = True,
    ) -> None:
        self.ring = ring
        self.nodes = nodes
        self.handles = handles
        self.churn = churn
        self._clock = clock
        #: Whether handle registrations are replicated (owner failover).
        self.enabled = enabled
        #: Query ids that have been retracted; state arriving for them after
        #: the retraction is orphaned and must be dropped on sight.
        self.retracted: Set[str] = set()
        #: owner address -> ids of the active queries it owns.
        self._by_owner: Dict[str, Set[str]] = {}
        #: insertion time -> active queries submitted at it (:meth:`tied`).
        self._live_at: Dict[float, int] = {}

    # ------------------------------------------------------------------
    # registration placement
    # ------------------------------------------------------------------
    def registration_home(self, query_id: str) -> Optional[str]:
        """Address of the node that must hold ``query_id``'s registration.

        The ring successor of the query's current owner — the node that
        inherits the owner's identifier range if the owner fails.  ``None``
        for unknown/retracted queries (their registrations are garbage) and
        when the owner itself is the whole ring.
        """
        handle = self.handles.get(query_id)
        if handle is None or not self.ring.has_address(handle.owner):
            return None
        owner_node = self.ring.node_by_address(handle.owner)
        successor = self.ring.successor_of(owner_node)
        if successor.address == handle.owner:
            return None  # single-node ring: nowhere to replicate
        return successor.address

    def register(self, handle: "QueryHandle") -> None:
        """Replicate ``handle``'s registration onto the owner's successor."""
        self._by_owner.setdefault(handle.owner, set()).add(handle.query_id)
        inserted = handle.insertion_time
        self._live_at[inserted] = self._live_at.get(inserted, 0) + 1
        if not self.enabled:
            return
        home = self.registration_home(handle.query_id)
        if home is None:
            return
        self.nodes[home].registrations[handle.query_id] = HandleRegistration(
            query_id=handle.query_id,
            owner=handle.owner,
            watermark=handle.count,
            replicated_at=self._clock(),
        )

    def deregister(self, query_id: str) -> None:
        """Drop a removed query's registration everywhere it could live."""
        handle = self.handles.get(query_id)
        if handle is not None:
            owned = self._by_owner.get(handle.owner)
            if owned is not None:
                owned.discard(query_id)
                if not owned:
                    del self._by_owner[handle.owner]
            live = self._live_at.pop(handle.insertion_time) - 1
            if live:
                self._live_at[handle.insertion_time] = live
        for node in self.nodes.values():
            node.registrations.pop(query_id, None)

    def tied(self, insertion_time: float) -> bool:
        """Whether another active query has ``insertion_time``, or may still
        get it: the clock still reads it, so the next submission would.

        A state whose window names its tuples can only have a twin while
        its insertion time is tied
        (:func:`~repro.core.rewriting.canonical_state_key`).
        """
        return (
            self._live_at.get(insertion_time, 0) > 1
            or insertion_time == self._clock()
        )

    def mark_retracted(self, query_id: str) -> None:
        """Tombstone ``query_id`` so late-arriving state is dropped."""
        self.retracted.add(query_id)

    def is_retracted(self, query_id: str) -> bool:
        """Whether ``query_id`` has been removed (orphan guard)."""
        return query_id in self.retracted

    # ------------------------------------------------------------------
    # owner resolution (the answer path asks on every emission)
    # ------------------------------------------------------------------
    def resolve_owner(self, query_id: str, default: str) -> str:
        """The current owner of ``query_id`` (``default`` when unknown).

        Query state carries the owner address it was created with; after a
        failover that address is stale.  Producers resolve the live owner at
        emission time, so answers keep flowing to the surviving registrant.
        """
        handle = self.handles.get(query_id)
        return handle.owner if handle is not None else default

    # ------------------------------------------------------------------
    # owner failover
    # ------------------------------------------------------------------
    def queries_owned_by(self, address: str) -> List[str]:
        """Ids of the active queries whose handles live on ``address``."""
        return sorted(self._by_owner.get(address, ()))

    def failover_owner(self, address: str, successor: str) -> List[str]:
        """Re-register every query owned by ``address`` onto ``successor``.

        Called by the engine after the departed owner left the ring, with
        the successor the *pre-departure* ring named for it: the node that
        already holds the replicated registrations (that is the point of
        replicating them there).  Each registration is refreshed and moved
        to the new owner's own successor.  Returns the re-registered query
        ids.
        """
        if not self.enabled:
            return []
        moved = self.queries_owned_by(address)
        if not moved:
            return []
        now = self._clock()
        for query_id in moved:
            handle = self.handles[query_id]
            handle.owner = successor
            registration = self._find_registration(query_id)
            if registration is None:
                registration = HandleRegistration(query_id=query_id, owner=successor)
            registration.owner = successor
            registration.watermark = handle.count
            registration.replicated_at = now
            self._place(query_id, registration)
            self.churn.failover_reregistrations += 1
        self._by_owner.setdefault(successor, set()).update(moved)
        self._by_owner.pop(address, None)
        return moved

    def repair_replicas(self, departed: str) -> int:
        """Re-create the registrations a departed node held for live owners.

        A crash destroys the replica records stored on the dead node; each
        affected owner re-replicates its handle registration onto the
        current successor (out-of-band, like membership re-homing).  Returns
        the number of registrations re-created.
        """
        if not self.enabled:
            return 0
        repaired = 0
        placed: Set[str] = set()
        for node in self.nodes.values():
            placed.update(node.registrations)
        now = self._clock()
        for query_id, handle in self.handles.items():
            if query_id in placed or handle.owner == departed:
                continue
            registration = HandleRegistration(
                query_id=query_id,
                owner=handle.owner,
                watermark=handle.count,
                replicated_at=now,
            )
            if self._place(query_id, registration):
                repaired += 1
        return repaired

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _find_registration(self, query_id: str) -> Optional[HandleRegistration]:
        """Locate (and detach) the replica record of ``query_id``."""
        for node in self.nodes.values():
            registration = node.registrations.pop(query_id, None)
            if registration is not None:
                return registration
        return None

    def _place(self, query_id: str, registration: HandleRegistration) -> bool:
        """Store ``registration`` at its current home; False when homeless."""
        home = self.registration_home(query_id)
        if home is None:
            return False
        node = self.nodes.get(home)
        if node is None:
            raise EngineError(
                f"registration home {home!r} for query {query_id!r} has no "
                "application-layer node registered"
            )
        node.registrations[query_id] = registration
        return True
