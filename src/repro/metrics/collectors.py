"""Per-node query-processing and storage load accounting.

The definitions follow Section 8 of the paper verbatim:

* the *query processing load* (QPL) of a node is the number of rewritten
  queries it receives (to search for locally stored tuples) plus the number
  of tuples it receives (to search for locally stored queries),
* the *storage load* (SL) of a node is the number of rewritten queries plus
  the number of tuples it stores locally.

Both cumulative (total load incurred over the run) and current (state held
right now, after garbage collection) storage values are tracked: without
sliding windows the two coincide; with windows the difference is exactly the
state reduction the paper credits windows for.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple


@dataclass(frozen=True)
class MembershipEvent:
    """One ring-membership change and the state movement it caused.

    ``kind`` is ``"join"``, ``"leave"``, ``"crash"`` or ``"move"`` (one
    id-movement rebalancing round).  Re-homed counters cover state handed to
    its new owner; lost counters cover state destroyed by a crash.
    """

    kind: str
    address: str
    at: float
    records_rehomed: int = 0
    bytes_rehomed: int = 0
    records_lost: int = 0
    bytes_lost: int = 0


class ChurnStats:
    """Network-wide accounting of membership churn and state re-homing.

    Fed by the engine's :class:`~repro.core.membership.MembershipManager`;
    aggregates are maintained incrementally so the metrics summary reads
    them in O(1).
    """

    def __init__(self) -> None:
        self.events: List[MembershipEvent] = []
        self._by_kind: Dict[str, int] = defaultdict(int)
        self._records_rehomed = 0
        self._bytes_rehomed = 0
        self._records_lost = 0
        self._bytes_lost = 0
        # Query lifecycle (retraction + owner failover) -------------------
        self._queries_removed = 0
        self._records_retracted = 0
        self._records_vacuumed = 0
        self._orphaned_state_records = 0
        self._failover_reregistrations = 0
        self._replica_repairs = 0
        self._answers_rerouted = 0
        # Matching (predicate-aware query index + shared state) ------------
        self._queries_triggered = 0
        self._trigger_candidates_scanned = 0
        self._shared_state_fanout = 0

    def record(self, event: MembershipEvent) -> None:
        """Account one membership event."""
        self.events.append(event)
        self._by_kind[event.kind] += 1
        self._records_rehomed += event.records_rehomed
        self._bytes_rehomed += event.bytes_rehomed
        self._records_lost += event.records_lost
        self._bytes_lost += event.bytes_lost

    # ------------------------------------------------------------------
    # query lifecycle accounting
    # ------------------------------------------------------------------
    def record_query_removed(self, records_retracted: int = 0) -> None:
        """One continuous query was retracted, purging ``records_retracted``."""
        self._queries_removed += 1
        self._records_retracted += records_retracted

    def record_vacuum(self, records: int) -> None:
        """The no-active-queries vacuum reclaimed ``records`` stored items."""
        self._records_vacuumed += records

    def record_orphaned(self, records: int = 1) -> None:
        """State of a retracted query surfaced after its removal (probe)."""
        self._orphaned_state_records += records

    def record_failover_reregistration(self, count: int = 1) -> None:
        """A surviving node took over a departed owner's registrations."""
        self._failover_reregistrations += count

    def record_replica_repairs(self, count: int) -> None:
        """Owners re-replicated registrations a departed holder destroyed."""
        self._replica_repairs += count

    def record_answers_rerouted(self, count: int = 1) -> None:
        """In-flight answers were re-routed to a failed-over owner."""
        self._answers_rerouted += count

    # ------------------------------------------------------------------
    # tuple-arrival matching accounting
    # ------------------------------------------------------------------
    def record_queries_triggered(self, count: int = 1) -> None:
        """Stored queries whose rewrite actually fired on a tuple arrival."""
        self._queries_triggered += count

    def record_trigger_candidates_scanned(self, count: int) -> None:
        """Stored-query candidates fetched by tuple-arrival index probes."""
        self._trigger_candidates_scanned += count

    def record_shared_state_fanout(self, count: int) -> None:
        """Extra subscribers served by shared-state answer emissions."""
        self._shared_state_fanout += count

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    @property
    def joins(self) -> int:
        """Number of nodes that joined the ring."""
        return self._by_kind["join"]

    @property
    def leaves(self) -> int:
        """Number of graceful departures."""
        return self._by_kind["leave"]

    @property
    def crashes(self) -> int:
        """Number of abrupt failures."""
        return self._by_kind["crash"]

    @property
    def moves(self) -> int:
        """Number of id-movement rebalancing rounds that moved state."""
        return self._by_kind["move"]

    @property
    def total_events(self) -> int:
        """Every membership event recorded so far."""
        return len(self.events)

    @property
    def records_rehomed(self) -> int:
        """Stored items moved to a new owner across all events; O(1)."""
        return self._records_rehomed

    @property
    def bytes_rehomed(self) -> int:
        """Estimated payload bytes moved across all events; O(1)."""
        return self._bytes_rehomed

    @property
    def records_lost(self) -> int:
        """Stored items destroyed by crashes; O(1)."""
        return self._records_lost

    @property
    def bytes_lost(self) -> int:
        """Estimated payload bytes destroyed by crashes; O(1)."""
        return self._bytes_lost

    @property
    def queries_removed(self) -> int:
        """Continuous queries retracted through the lifecycle layer; O(1)."""
        return self._queries_removed

    @property
    def records_retracted(self) -> int:
        """State records purged by query retractions; O(1)."""
        return self._records_retracted

    @property
    def records_vacuumed(self) -> int:
        """Stored items reclaimed by the no-active-queries vacuum; O(1)."""
        return self._records_vacuumed

    @property
    def orphaned_state_records(self) -> int:
        """Retracted-query state caught after removal (should stay 0); O(1)."""
        return self._orphaned_state_records

    @property
    def failover_reregistrations(self) -> int:
        """Handle registrations taken over by surviving nodes; O(1)."""
        return self._failover_reregistrations

    @property
    def replica_repairs(self) -> int:
        """Registrations re-replicated after their holder departed; O(1)."""
        return self._replica_repairs

    @property
    def answers_rerouted(self) -> int:
        """In-flight answers re-routed to a failed-over owner; O(1)."""
        return self._answers_rerouted

    @property
    def queries_triggered(self) -> int:
        """Stored queries whose rewrite fired on a tuple arrival; O(1)."""
        return self._queries_triggered

    @property
    def trigger_candidates_scanned(self) -> int:
        """Candidates fetched by tuple-arrival index probes; O(1).

        The index-selectivity probe: with the predicate-aware query index
        this stays close to :attr:`queries_triggered`; a full-scan matcher
        would instead scan every resident record per arrival.
        """
        return self._trigger_candidates_scanned

    @property
    def shared_state_fanout(self) -> int:
        """Extra subscribers served by shared-state answers; O(1)."""
        return self._shared_state_fanout

    def reset(self) -> None:
        """Clear every counter and the event log."""
        self.events.clear()
        self._by_kind.clear()
        self._records_rehomed = 0
        self._bytes_rehomed = 0
        self._records_lost = 0
        self._bytes_lost = 0
        self._queries_removed = 0
        self._records_retracted = 0
        self._records_vacuumed = 0
        self._orphaned_state_records = 0
        self._failover_reregistrations = 0
        self._replica_repairs = 0
        self._answers_rerouted = 0
        self._queries_triggered = 0
        self._trigger_candidates_scanned = 0
        self._shared_state_fanout = 0


@dataclass
class NodeLoad:
    """Load counters of a single node."""

    tuples_received: int = 0
    queries_received: int = 0          # rewritten queries received (QPL component)
    input_queries_received: int = 0    # input query indexing (not part of QPL)
    queries_stored: int = 0            # cumulative rewritten queries stored
    tuples_stored: int = 0             # cumulative tuples stored (value level)
    queries_dropped: int = 0           # stored queries removed (window GC)
    tuples_dropped: int = 0            # stored tuples removed (window GC)
    answers_produced: int = 0

    @property
    def query_processing_load(self) -> int:
        """QPL as defined in Section 8."""
        return self.tuples_received + self.queries_received

    @property
    def storage_load(self) -> int:
        """Cumulative SL: every item the node ever had to store."""
        return self.queries_stored + self.tuples_stored

    @property
    def current_storage(self) -> int:
        """Items currently held (after garbage collection)."""
        return self.storage_load - self.queries_dropped - self.tuples_dropped


class LoadTracker:
    """Network-wide QPL/SL accounting, keyed by node address.

    Besides the per-node counters, the network-wide aggregates are maintained
    incrementally so that :attr:`total_query_processing_load` and friends —
    polled by the engine's metrics summary and by every rebalancing round —
    are O(1) instead of a sum over all nodes.
    """

    def __init__(self) -> None:
        self._per_node: Dict[str, NodeLoad] = defaultdict(NodeLoad)
        self._total_qpl = 0
        self._total_storage = 0
        self._total_dropped = 0
        self._total_answers = 0
        self._participating = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_tuple_received(self, address: str) -> None:
        """A node received a tuple and must search its stored queries."""
        load = self._per_node[address]
        if load.query_processing_load == 0:
            self._participating += 1
        load.tuples_received += 1
        self._total_qpl += 1

    def record_query_received(self, address: str) -> None:
        """A node received a rewritten query and must search its stored tuples."""
        load = self._per_node[address]
        if load.query_processing_load == 0:
            self._participating += 1
        load.queries_received += 1
        self._total_qpl += 1

    def record_input_query_received(self, address: str) -> None:
        """A node received an input query for indexing."""
        self._per_node[address].input_queries_received += 1

    def record_query_stored(self, address: str) -> None:
        """A node stored a rewritten query locally."""
        self._per_node[address].queries_stored += 1
        self._total_storage += 1

    def record_tuple_stored(self, address: str) -> None:
        """A node stored a tuple locally (value level)."""
        self._per_node[address].tuples_stored += 1
        self._total_storage += 1

    def record_query_dropped(self, address: str, count: int = 1) -> None:
        """Stored rewritten queries were garbage collected."""
        self._per_node[address].queries_dropped += count
        self._total_dropped += count

    def record_tuple_dropped(self, address: str, count: int = 1) -> None:
        """Stored tuples were garbage collected."""
        self._per_node[address].tuples_dropped += count
        self._total_dropped += count

    def record_answer(self, address: str, count: int = 1) -> None:
        """A node produced ``count`` answers for some input query."""
        self._per_node[address].answers_produced += count
        self._total_answers += count

    # ------------------------------------------------------------------
    # per-node access
    # ------------------------------------------------------------------
    def node(self, address: str) -> NodeLoad:
        """Counters for one node (zeroed for unknown addresses)."""
        return self._per_node[address]

    def per_node(self) -> Mapping[str, NodeLoad]:
        """Mapping of address to load counters."""
        return dict(self._per_node)

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    @property
    def total_query_processing_load(self) -> int:
        """Sum of QPL over all nodes; O(1)."""
        return self._total_qpl

    @property
    def total_storage_load(self) -> int:
        """Sum of cumulative SL over all nodes; O(1)."""
        return self._total_storage

    @property
    def total_current_storage(self) -> int:
        """Sum of currently held items over all nodes; O(1)."""
        return self._total_storage - self._total_dropped

    @property
    def total_answers(self) -> int:
        """Total answers produced network-wide; O(1)."""
        return self._total_answers

    def qpl_per_node(self, num_nodes: int) -> float:
        """Average QPL per node in a network of ``num_nodes``."""
        if num_nodes <= 0:
            return 0.0
        return self.total_query_processing_load / num_nodes

    def storage_per_node(self, num_nodes: int) -> float:
        """Average cumulative SL per node in a network of ``num_nodes``."""
        if num_nodes <= 0:
            return 0.0
        return self.total_storage_load / num_nodes

    def ranked_query_processing_load(self) -> List[int]:
        """Per-node QPL, sorted decreasing (ranked-node plots)."""
        return sorted(
            (load.query_processing_load for load in self._per_node.values()),
            reverse=True,
        )

    def ranked_storage_load(self, current: bool = False) -> List[int]:
        """Per-node SL (cumulative or current), sorted decreasing."""
        if current:
            values = (load.current_storage for load in self._per_node.values())
        else:
            values = (load.storage_load for load in self._per_node.values())
        return sorted(values, reverse=True)

    def participating_nodes(self) -> int:
        """Number of nodes that incurred any query-processing load; O(1)."""
        return self._participating

    def snapshot(self) -> Tuple[int, int]:
        """Return ``(total QPL, total cumulative SL)`` for delta computations."""
        return self.total_query_processing_load, self.total_storage_load

    def reset(self) -> None:
        """Clear every counter."""
        self._per_node.clear()
        self._total_qpl = 0
        self._total_storage = 0
        self._total_dropped = 0
        self._total_answers = 0
        self._participating = 0
