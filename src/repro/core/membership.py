"""Unified state re-homing for dynamic ring membership.

The engine used to support exactly one topology mutation — id movement
(Figure 9) — through an ad-hoc ``_rehome_state`` helper.  This module
generalises that machinery into a :class:`MembershipManager` that computes
ownership deltas for *any* ring mutation (join, graceful leave, crash, id
movement) and re-homes every kind of node-local state:

* stored value-level tuples (:class:`~repro.data.store.TupleStore`),
* attribute-level tuple-table entries
  (:class:`~repro.core.altt.AttributeLevelTupleTable`),
* stored input and rewritten queries
  (:class:`~repro.core.node.QueryTable`),
* replicated handle registrations of the query lifecycle subsystem
  (:class:`~repro.core.lifecycle.HandleRegistration`) — these live on the
  ring successor of each query's *owner* rather than at the hash of a key,
  so the manager routes them through the lifecycle layer's
  ``registration_home`` instead of ``owner_of``.

Re-homing is an out-of-band state transfer (it does not generate simulated
network messages — the same modelling choice the id-movement path always
made), but its cost is measured: every membership event records how many
items and how many estimated payload bytes moved (or, for crashes, were
lost) into :class:`~repro.metrics.collectors.ChurnStats`, which is what the
``node-churn`` scenario and ``benchmarks/bench_churn.py`` report.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence

from repro.dht.chord import ChordRing
from repro.errors import EngineError
from repro.metrics.collectors import ChurnStats, LoadTracker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.node import RehomedItem, RJoinNode


def estimate_item_bytes(item: "RehomedItem") -> int:
    """A deterministic, cheap estimate of one re-homed item's payload size.

    The simulation never serialises state, so the estimate is the length of
    the item's key plus the ``repr`` of the values it carries — stable across
    runs and good enough to compare re-homing cost between churn schedules.
    """
    size = len(item.key_text)
    payload = item.payload
    kind = item.kind
    if kind == "tuple":
        size += len(repr(payload.tuple.values))
    elif kind == "altt":
        tup, _received_at = payload
        size += len(repr(tup.values))
    elif kind in ("input", "rewritten"):
        size += len(repr(payload.state.query))
        # A shared record carries its extra subscribers' registrations too.
        if payload.state.extra_subscribers:
            size += len(repr(payload.state.extra_subscribers))
    else:
        size += len(repr(payload))
    return size


class MembershipManager:
    """Computes ownership deltas and re-homes state after ring mutations.

    The manager owns no topology decisions — callers mutate the
    :class:`~repro.dht.chord.ChordRing` first (add/remove/move a node) and
    then ask the manager to make the application state consistent with the
    new ownership map.  Three entry points cover every mutation:

    * :meth:`rehome_misplaced` — after id movement or a join: scan the given
      nodes (or all of them) and move items whose key changed owner,
    * :meth:`handoff` — after a graceful leave: the departed node's entire
      state is handed to the current owners,
    * :meth:`discard` — after a crash: the dead node's state is destroyed
      and accounted as lost.
    """

    def __init__(
        self,
        ring: ChordRing,
        nodes: Dict[str, "RJoinNode"],
        loads: LoadTracker,
        churn: ChurnStats,
        registration_home: Callable[[str], Optional[str]],
    ) -> None:
        self.ring = ring
        self.nodes = nodes
        self.loads = loads
        self.churn = churn
        #: ``query_id -> address`` of the node that must hold the query's
        #: replicated handle registration (None: the query is gone); the
        #: lifecycle layer's
        #: :meth:`~repro.core.lifecycle.QueryLifecycleManager.registration_home`.
        self.registration_home = registration_home

    # ------------------------------------------------------------------
    # ownership
    # ------------------------------------------------------------------
    def owner_of(self, key_text: str) -> str:
        """Address of the node currently responsible for ``key_text``."""
        return self.ring.owner_of_key(key_text).address

    # ------------------------------------------------------------------
    # re-homing passes
    # ------------------------------------------------------------------
    def rehome_misplaced(
        self, addresses: Optional[Sequence[str]] = None, kind: str = "move"
    ) -> None:
        """Move misplaced items from ``addresses`` (default: every node).

        A join only displaces state on the new node's successor, so the
        caller can restrict the scan; id movement touches arbitrary arcs and
        scans everything.  A join (``kind="join"``) is a membership event
        even when it moves nothing; an id-movement round (``kind="move"``)
        is one only when some state moved.
        """
        if addresses is None:
            scan: Iterable["RJoinNode"] = list(self.nodes.values())
        else:
            scan = [self.nodes[address] for address in addresses]
        pending: List["RehomedItem"] = []
        for node in scan:
            pending.extend(
                node.extract_misplaced(self.owner_of, self.registration_home)
            )
        moved = self._deliver(pending)
        if kind == "join":
            self.churn.joins += 1
        elif not moved:
            return
        self.churn.membership_events += 1

    def handoff(self, departed: "RJoinNode") -> None:
        """Hand every item of a departed node to the current owners.

        ``departed`` must already be out of the ring and the engine's node
        table; its keys now resolve to the surviving owners.
        """
        if self.ring.has_address(departed.address):
            raise EngineError(
                f"cannot hand off state of {departed.address!r}: the node is "
                "still part of the ring"
            )
        self._deliver(departed.extract_all())
        self.churn.leaves += 1
        self.churn.membership_events += 1

    def discard(self, crashed: "RJoinNode") -> None:
        """Destroy a crashed node's state and account it as lost.

        The load tracker is told about the destroyed rewritten queries and
        tuples so the network-wide *current storage* aggregate keeps matching
        the live state of the surviving nodes.
        """
        items = crashed.extract_all()
        queries_lost = sum(1 for item in items if item.kind == "rewritten")
        tuples_lost = sum(1 for item in items if item.kind == "tuple")
        if queries_lost:
            self.loads.record_query_dropped(crashed.address, queries_lost)
        if tuples_lost:
            self.loads.record_tuple_dropped(crashed.address, tuples_lost)
        churn = self.churn
        churn.records_lost += len(items)
        churn.bytes_lost += sum(estimate_item_bytes(item) for item in items)
        churn.crashes += 1
        churn.membership_events += 1

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _deliver(self, pending: List["RehomedItem"]) -> int:
        """Hand every extracted item to the node owning its key; returns the
        number of items delivered (and counted as re-homed).

        Handle registrations route through the lifecycle layer's
        ``registration_home`` (they live at the successor of their query's
        owner, not at the hash of a key); a registration whose query has
        disappeared in the meantime is dropped rather than delivered.
        """
        bytes_moved = 0
        delivered = 0
        # Group the consignment per owning node first, so each target adopts
        # its share in one call.
        by_owner: Dict[str, List["RehomedItem"]] = {}
        for item in pending:
            if item.kind == "registration":
                home = self.registration_home(item.key_text)
                if home is None:
                    continue
                owner = home
            else:
                owner = self.owner_of(item.key_text)
            if owner not in self.nodes:
                raise EngineError(
                    f"re-homing target {owner!r} for key {item.key_text!r} "
                    "has no application-layer node registered"
                )
            by_owner.setdefault(owner, []).append(item)
            delivered += 1
            bytes_moved += estimate_item_bytes(item)
        for owner, items in by_owner.items():
            self.nodes[owner].accept_rehomed(items)
        self.churn.records_rehomed += delivered
        self.churn.bytes_rehomed += bytes_moved
        return delivered
