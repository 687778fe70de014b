"""Chord overlay: nodes, finger tables, lookup paths, join/leave/move.

The simulation keeps a global view of the ring (all experiments in the paper
run on a stable network), but routing is performed exactly as Chord would
with correct finger tables: a lookup from node ``x`` for identifier ``id``
greedily forwards the request to the finger that most closely precedes
``id``, reaching ``Successor(id)`` in ``O(log N)`` hops with high
probability.  The hop sequence returned by :meth:`ChordRing.route_path` is
what the traffic accounting of the experiments charges.

Node joins, voluntary leaves and identifier movement (used by the
load-balancing experiment of Figure 9) are supported; after a membership
change the cached finger tables are invalidated, which models Chord reaching
stability again before the next message is routed.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Tuple

from repro.dht.hashing import IdentifierSpace
from repro.dht.ring import RingMap
from repro.errors import (
    ConfigurationError,
    DuplicateNodeError,
    EmptyRingError,
    UnknownNodeError,
)


class ChordNode:
    """A single Chord node: an identifier plus a network address."""

    __slots__ = ("node_id", "address")

    def __init__(self, node_id: int, address: str) -> None:
        self.node_id = node_id
        self.address = address

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChordNode(id={self.node_id}, address={self.address!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChordNode):
            return NotImplemented
        return self.address == other.address and self.node_id == other.node_id

    def __hash__(self) -> int:
        return hash((self.address, self.node_id))


class ChordRing:
    """The global view of a Chord network used by the simulation."""

    def __init__(self, space: Optional[IdentifierSpace] = None) -> None:
        self.space = space or IdentifierSpace()
        self._ring: RingMap[ChordNode] = RingMap(self.space)
        self._by_address: Dict[str, ChordNode] = {}
        #: Address -> the node's distinct fingers as parallel lists
        #: ``(clockwise progress, finger)``, by increasing progress; at most
        #: ``bits`` entries per node, dropped on every membership change.
        self._finger_cache: Dict[str, Tuple[List[int], List[ChordNode]]] = {}
        #: Address -> ``(predecessor id, own id)``, built on first use and
        #: dropped with the fingers: one tuple per node and membership change.
        self._arc_cache: Dict[str, Tuple[int, int]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def create_network(
        cls,
        num_nodes: int,
        space: Optional[IdentifierSpace] = None,
        seed: Optional[int] = None,
        address_format: str = "node-{index}",
        hashed_placement: bool = False,
    ) -> "ChordRing":
        """Create a ring of ``num_nodes`` nodes.

        Node identifiers are drawn uniformly at random (default) or by
        hashing the node address (``hashed_placement=True``), both of which
        are standard Chord deployments.
        """
        if num_nodes <= 0:
            raise ConfigurationError("a network needs at least one node")
        ring = cls(space)
        rng = random.Random(seed)
        for index in range(num_nodes):
            address = address_format.format(index=index)
            if hashed_placement:
                # Extremely unlikely collisions: re-draw deterministically.
                node_id = ring._free_identifier_from(ring.space.hash_key(address))
            else:
                node_id = ring.random_free_identifier(rng)
            ring.add_node(address, node_id)
        return ring

    def random_free_identifier(self, rng: random.Random) -> int:
        """Draw a uniform identifier not currently occupied by any node.

        This is the placement rule of :meth:`create_network`, exposed so that
        nodes joining a live ring land the same way the founding nodes did.
        """
        return self._free_identifier_from(self.space.random_identifier(rng))

    def _free_identifier_from(self, node_id: int) -> int:
        """``node_id``, or the first identifier clockwise of it no node holds.

        Raises :class:`ConfigurationError` when every identifier is held.
        """
        if len(self._ring) >= self.space.size:
            raise ConfigurationError(
                f"all {self.space.size} identifiers of the ring are taken"
            )
        while node_id in self._ring:
            node_id = self.space.normalize(node_id + 1)
        return node_id

    def add_node(self, address: str, node_id: Optional[int] = None) -> ChordNode:
        """A node joins the ring (its identifier is hashed from the address by default)."""
        if address in self._by_address:
            raise DuplicateNodeError(f"a node with address {address!r} already exists")
        if node_id is None:
            node_id = self.space.hash_key(address)
        node_id = self.space.normalize(node_id)
        node = ChordNode(node_id, address)
        self._ring.insert(node_id, node)
        self._by_address[address] = node
        self._invalidate_caches()
        return node

    def remove_node(self, address: str) -> ChordNode:
        """A node leaves (or fails); its key range is absorbed by its successor."""
        node = self.node_by_address(address)
        self._ring.remove(node.node_id)
        del self._by_address[address]
        self._invalidate_caches()
        return node

    def move_node(self, address: str, new_id: int) -> Tuple[int, int]:
        """Relocate a node on the identifier circle (id movement, Figure 9).

        Returns ``(old_id, new_id)``.  The caller is responsible for
        re-homing application state whose ownership changed.
        """
        node = self.node_by_address(address)
        old_id = node.node_id
        new_id = self.space.normalize(new_id)
        if new_id == old_id:
            return old_id, new_id
        self._ring.move(old_id, new_id)
        node.node_id = new_id
        self._invalidate_caches()
        return old_id, new_id

    def _invalidate_caches(self) -> None:
        self._finger_cache.clear()
        self._arc_cache.clear()

    # ------------------------------------------------------------------
    # membership queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ring)

    @property
    def nodes(self) -> List[ChordNode]:
        """All nodes ordered by identifier."""
        return self._ring.values()

    @property
    def addresses(self) -> List[str]:
        """All node addresses ordered by identifier."""
        return [node.address for node in self._ring.values()]

    def node_by_address(self, address: str) -> ChordNode:
        """Return the node with the given address or raise."""
        try:
            return self._by_address[address]
        except KeyError:
            raise UnknownNodeError(f"no node with address {address!r}") from None

    def has_address(self, address: str) -> bool:
        """Whether a node with ``address`` participates in the ring."""
        return address in self._by_address

    # ------------------------------------------------------------------
    # ownership / lookup
    # ------------------------------------------------------------------
    def successor(self, identifier: int) -> ChordNode:
        """``Successor(identifier)``: the node responsible for the identifier."""
        _, node = self._ring.successor(identifier)
        return node

    def predecessor_of(self, node: ChordNode) -> ChordNode:
        """The node immediately preceding ``node`` on the circle."""
        _, pred = self._ring.predecessor(node.node_id)
        return pred

    def successor_of(self, node: ChordNode) -> ChordNode:
        """The node immediately following ``node`` on the circle."""
        _, succ = self._ring.successor(self.space.normalize(node.node_id + 1))
        return succ

    def owner_of_key(self, key: str) -> ChordNode:
        """The node responsible for a string key (``Successor(Hash(key))``)."""
        return self.successor(self.space.hash_key(key))

    def arc_of(self, address: str) -> Tuple[int, int]:
        """``(predecessor id, own id)`` of the node at ``address``.

        It is responsible for the identifiers ``(predecessor id, own id]`` —
        the whole circle when it is the only node.  Every call between two
        membership changes returns the same tuple object.
        """
        arc = self._arc_cache.get(address)
        if arc is None:
            node = self.node_by_address(address)
            arc = (self.predecessor_of(node).node_id, node.node_id)
            self._arc_cache[address] = arc
        return arc

    def arc_length_of(self, node: ChordNode) -> int:
        """Number of identifiers owned by ``node``."""
        return self._ring.arc_length(node.node_id)

    # ------------------------------------------------------------------
    # finger tables and routing
    # ------------------------------------------------------------------
    def finger_table(self, node: ChordNode) -> List[ChordNode]:
        """The finger table of ``node``: ``finger[i] = Successor(n + 2^i)``."""
        progress, fingers = self._fingers(node)
        table: List[ChordNode] = []
        for exponent in range(self.space.bits):
            # Successor(n + 2^i) is the nearest node at least 2^i away, and
            # a finger itself; past the farthest one the circle wraps to n.
            index = bisect_left(progress, 1 << exponent)
            table.append(fingers[index] if index < len(fingers) else node)
        return table

    def _fingers(self, node: ChordNode) -> Tuple[List[int], List[ChordNode]]:
        """The distinct fingers of ``node`` other than itself, nearest first."""
        cached = self._finger_cache.get(node.address)
        if cached is None:
            progress: List[int] = []
            fingers: List[ChordNode] = []
            # Progress never decreases with the exponent until the circle
            # wraps back to the node itself (progress 0), so walking the
            # exponents upwards yields the fingers already sorted.
            for exponent in range(self.space.bits):
                finger = self.successor(self.space.power_step(node.node_id, exponent))
                reach = self.space.distance(node.node_id, finger.node_id)
                if reach and (not progress or reach > progress[-1]):
                    progress.append(reach)
                    fingers.append(finger)
            cached = self._finger_cache[node.address] = (progress, fingers)
        return cached

    def route_path(self, start: ChordNode, identifier: int) -> List[ChordNode]:
        """The node sequence a Chord lookup from ``start`` for ``identifier`` visits.

        The returned list starts at ``start`` and ends at
        ``Successor(identifier)``.  Each intermediate step follows the finger
        that most closely precedes the identifier (greedy Chord routing with
        perfect finger tables); the number of transmissions for the lookup is
        ``len(path) - 1``.
        """
        if len(self._ring) == 0:
            raise EmptyRingError("cannot route on an empty ring")
        identifier = self.space.normalize(identifier)
        owner = self.successor(identifier)
        path = [start]
        current = start
        # Upper bound on steps: the identifier-space bit width (each greedy
        # step at least halves the remaining clockwise distance).
        for _ in range(self.space.bits + 1):
            if current.address == owner.address:
                return path
            next_hop = self._closest_preceding_hop(current, identifier)
            path.append(next_hop)
            current = next_hop
        raise ConfigurationError(
            "routing did not converge; the ring is in an inconsistent state"
        )

    def _closest_preceding_hop(self, current: ChordNode, identifier: int) -> ChordNode:
        """The next hop of greedy Chord routing from ``current`` towards ``identifier``."""
        remaining = self.space.distance(current.node_id, identifier)
        if remaining == 0:
            return current
        # The finger that most closely precedes the identifier is the one
        # with the largest progress inside (current, identifier].
        progress, fingers = self._fingers(current)
        index = bisect_right(progress, remaining)
        if index:
            return fingers[index - 1]
        # No finger falls inside (current, identifier]: the immediate
        # successor of ``current`` owns the identifier.
        return self.successor_of(current)

    def lookup(self, start_address: str, key: str) -> Tuple[ChordNode, int]:
        """Resolve ``key`` starting from ``start_address``; return (owner, hops)."""
        start = self.node_by_address(start_address)
        path = self.route_path(start, self.space.hash_key(key))
        return path[-1], len(path) - 1
