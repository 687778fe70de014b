"""Id-movement load balancing (lower-layer optimisation of Figure 9).

The paper's last experiment plugs in the load-balancing technique of Karger
and Ruhl [19], "which is based on allowing a node to change its position on
the identifier circle", to balance responsibility for rewritten queries and
tuples among the nodes.  :class:`IdMovementBalancer` reproduces that effect:

* the load of every node is measured by a caller-supplied function (the
  engine uses storage + query-processing load),
* lightly loaded nodes are moved next to the most heavily loaded nodes so
  that they take over (roughly) half of the heavy node's key range,
* after the ring changes, the caller re-homes application state whose
  ownership moved (the engine does this through its own re-homing hook).

The algorithm is intentionally simple — one balancing round pairs each node
above the average with the least loaded node still unmoved —
because the paper only uses it to demonstrate that RJoin can exploit
lower-level DHT optimisations unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional

from repro.dht.chord import ChordNode, ChordRing
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class IdMove:
    """A single id movement performed by the balancer."""

    address: str
    old_id: int
    new_id: int
    donor_address: str


class IdMovementBalancer:
    """Pairs lightly loaded nodes with heavily loaded ones and moves their ids."""

    def __init__(
        self,
        ring: ChordRing,
        light_load_factor: float = 0.5,
        max_moves_per_round: Optional[int] = None,
    ) -> None:
        if light_load_factor <= 0 or light_load_factor > 1:
            raise ConfigurationError("light_load_factor must be in (0, 1]")
        self.ring = ring
        self.light_load_factor = light_load_factor
        self.max_moves_per_round = max_moves_per_round
        self.moves_performed: List[IdMove] = []

    # ------------------------------------------------------------------
    # balancing
    # ------------------------------------------------------------------
    def rebalance(self, loads: Mapping[str, float]) -> List[IdMove]:
        """Run one balancing round given per-node loads (keyed by address).

        Nodes whose load is below ``light_load_factor * average`` are
        candidates to move; heaviest-first, each node above the average takes
        the lightest candidate not yet moved, which re-joins at the midpoint
        of the heavy node's arc so that it takes over about half of its key
        range (the donor's own predecessor included: it moves forward).  An
        arc too small to split keeps its donor and the candidate.  Returns
        the moves performed (which the caller must follow with state
        re-homing).
        """
        if len(self.ring) < 2 or not loads:
            return []
        average = sum(loads.values()) / max(len(loads), 1)
        ranked = sorted(loads.items(), key=lambda item: item[1], reverse=True)
        heavy = [addr for addr, load in ranked if load > average]
        light = [
            addr
            for addr, load in reversed(ranked)
            if load <= average * self.light_load_factor
        ]
        moves: List[IdMove] = []
        budget = self.max_moves_per_round
        for donor_address in heavy:
            if not light or (budget is not None and len(moves) >= budget):
                break
            # Whether the donor's arc can be split does not depend on the
            # mover, so the lightest candidate is the only one tried.
            move = self._move_next_to(light[0], donor_address)
            if move is not None:
                moves.append(move)
                light.pop(0)
        self.moves_performed.extend(moves)
        return moves

    def _move_next_to(self, mover_address: str, donor_address: str) -> Optional[IdMove]:
        """Move ``mover`` to the midpoint of ``donor``'s arc (taking half its keys)."""
        donor = self.ring.node_by_address(donor_address)
        mover = self.ring.node_by_address(mover_address)
        predecessor = self.ring.predecessor_of(donor)
        if predecessor.address == donor.address:
            return None  # single-node ring
        new_id = self.ring.space.midpoint(predecessor.node_id, donor.node_id)
        if new_id in (predecessor.node_id, donor.node_id):
            return None  # arc too small to split
        old_id = mover.node_id
        try:
            self.ring.move_node(mover_address, new_id)
        except Exception:
            return None
        return IdMove(
            address=mover_address,
            old_id=old_id,
            new_id=new_id,
            donor_address=donor_address,
        )

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def rebalance_with(
        self, load_of: Callable[[ChordNode], float]
    ) -> List[IdMove]:
        """Measure loads with ``load_of`` and run :meth:`rebalance`."""
        loads = {node.address: load_of(node) for node in self.ring.nodes}
        return self.rebalance(loads)
