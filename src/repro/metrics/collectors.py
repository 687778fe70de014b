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
from dataclasses import dataclass, fields
from typing import Dict, List, Mapping, Tuple


@dataclass(slots=True)
class ChurnStats:
    """Network-wide counters of membership churn, the query lifecycle and
    tuple-arrival matching.

    Each field is named exactly as its ``RJoinEngine.metrics_summary`` key,
    which reports every field as it stands; writers add to a field in place.
    """

    # Dynamic membership (node churn) -------------------------------------
    #: Joins, graceful leaves, crashes and id-movement rounds that moved state.
    membership_events: int = 0
    joins: int = 0
    leaves: int = 0
    crashes: int = 0
    #: Stored items (and their estimated payload bytes) moved to a new owner.
    records_rehomed: int = 0
    bytes_rehomed: int = 0
    #: Stored items (and their estimated payload bytes) destroyed by crashes.
    records_lost: int = 0
    bytes_lost: int = 0
    # Query lifecycle (retraction + owner failover) -----------------------
    queries_removed: int = 0
    #: State records purged by query retractions.
    records_retracted: int = 0
    #: Stored items reclaimed by the no-active-queries vacuum.
    records_vacuumed: int = 0
    #: Retracted-query state caught after its removal (should stay 0).
    orphaned_state_records: int = 0
    #: Handle registrations taken over by surviving nodes.
    failover_reregistrations: int = 0
    #: Registrations re-replicated after their holder departed.
    replica_repairs: int = 0
    #: In-flight answers re-routed to a failed-over owner.
    answers_rerouted: int = 0
    # Matching (predicate-aware query index + shared state) ---------------
    #: Stored queries whose rewrite fired on a tuple arrival.
    queries_triggered: int = 0
    #: Candidates fetched by tuple-arrival index probes: with the
    #: predicate-aware query index this stays close to ``queries_triggered``,
    #: where a full-scan matcher would scan every resident record per arrival.
    trigger_candidates_scanned: int = 0
    #: Extra subscribers served by shared-state answers.
    shared_state_fanout: int = 0

    def reset(self) -> None:
        """Zero every counter."""
        for field in fields(self):
            setattr(self, field.name, 0)


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
