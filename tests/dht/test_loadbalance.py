"""Tests for the id-movement load balancer."""

import pytest

from repro.dht.chord import ChordRing
from repro.dht.hashing import IdentifierSpace
from repro.dht.loadbalance import IdMovementBalancer
from repro.errors import ConfigurationError


@pytest.fixture
def ring():
    return ChordRing.create_network(16, space=IdentifierSpace(16), seed=11)


def uneven_loads(ring, heavy_count=3, heavy=100.0, light=1.0):
    loads = {}
    for index, node in enumerate(ring.nodes):
        loads[node.address] = heavy if index < heavy_count else light
    return loads


class TestIdMovementBalancer:
    def test_invalid_factor_rejected(self, ring):
        with pytest.raises(ConfigurationError):
            IdMovementBalancer(ring, light_load_factor=0.0)

    def test_rebalance_moves_light_nodes_next_to_heavy_ones(self, ring):
        balancer = IdMovementBalancer(ring)
        loads = uneven_loads(ring)
        moves = balancer.rebalance(loads)
        assert moves, "expected at least one id movement"
        for move in moves:
            donor = ring.node_by_address(move.donor_address)
            mover = ring.node_by_address(move.address)
            # The mover now owns a prefix of the donor's former arc: it is the
            # donor's predecessor.
            assert ring.predecessor_of(donor).address == mover.address

    def test_rebalance_respects_move_budget(self, ring):
        balancer = IdMovementBalancer(ring, max_moves_per_round=1)
        moves = balancer.rebalance(uneven_loads(ring))
        assert len(moves) <= 1

    def test_rebalance_on_even_load_is_noop(self, ring):
        balancer = IdMovementBalancer(ring)
        loads = {node.address: 5.0 for node in ring.nodes}
        assert balancer.rebalance(loads) == []

    def test_rebalance_empty_loads(self, ring):
        balancer = IdMovementBalancer(ring)
        assert balancer.rebalance({}) == []

    def test_moves_are_recorded(self, ring):
        balancer = IdMovementBalancer(ring)
        moves = balancer.rebalance(uneven_loads(ring))
        assert balancer.moves_performed == moves

    def test_rebalance_with_callable(self, ring):
        heavy_addr = ring.nodes[0].address
        balancer = IdMovementBalancer(ring)
        moves = balancer.rebalance_with(
            lambda node: 100.0 if node.address == heavy_addr else 1.0
        )
        assert all(move.donor_address == heavy_addr for move in moves)

    @pytest.mark.parametrize("seed", [1, 2, 3, 5, 7, 11, 42])
    @pytest.mark.parametrize("position", ["first", "middle"])
    def test_split_reduces_donor_arc(self, position, seed):
        # Light nodes are tried from the end of the ring order, so the first
        # candidate is ``ring.nodes[-1]``, which already precedes
        # ``ring.nodes[0]``; a donor in the middle of the ring has another
        # predecessor.  Either way the donor's arc shrinks.
        ring = ChordRing.create_network(16, space=IdentifierSpace(16), seed=seed)
        donor = ring.nodes[0 if position == "first" else len(ring.nodes) // 2]
        loads = {node.address: 1.0 for node in ring.nodes}
        loads[donor.address] = 100.0
        before = ring.arc_length_of(donor)
        moves = IdMovementBalancer(ring).rebalance(loads)
        assert [move.donor_address for move in moves] == [donor.address]
        assert ring.arc_length_of(ring.node_by_address(donor.address)) < before

    @pytest.mark.parametrize("seed", [1, 2, 3, 5, 7, 11, 42])
    def test_the_donors_predecessor_moves_forward_and_halves_its_arc(self, seed):
        ring = ChordRing.create_network(16, space=IdentifierSpace(16), seed=seed)
        donor = ring.nodes[len(ring.nodes) // 2]
        predecessor = ring.predecessor_of(donor)
        loads = {node.address: 1.0 for node in ring.nodes}
        loads[donor.address] = 100.0
        loads[predecessor.address] = 0.0  # the lightest candidate
        before = ring.arc_length_of(donor)
        moves = IdMovementBalancer(ring).rebalance(loads)
        assert [(move.address, move.donor_address) for move in moves] == [
            (predecessor.address, donor.address)
        ]
        assert ring.predecessor_of(donor).address == predecessor.address
        assert ring.arc_length_of(donor) in (before // 2, (before + 1) // 2)
