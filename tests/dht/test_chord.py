"""Tests for the Chord overlay: ownership, routing, membership changes."""

import pytest

from repro.dht.chord import ChordRing
from repro.dht.hashing import IdentifierSpace
from repro.errors import ConfigurationError, DuplicateNodeError, UnknownNodeError


@pytest.fixture
def ring():
    return ChordRing.create_network(32, space=IdentifierSpace(16), seed=3)


class TestMembership:
    def test_create_network(self, ring):
        assert len(ring) == 32
        assert len(set(node.node_id for node in ring.nodes)) == 32
        assert len(ring.addresses) == 32

    def test_create_network_requires_positive_size(self):
        with pytest.raises(ConfigurationError):
            ChordRing.create_network(0)

    def test_add_and_remove_node(self, ring):
        node = ring.add_node("extra")
        assert ring.has_address("extra")
        assert len(ring) == 33
        ring.remove_node("extra")
        assert not ring.has_address("extra")
        assert len(ring) == 32
        assert node.address == "extra"

    def test_duplicate_address_rejected(self, ring):
        with pytest.raises(DuplicateNodeError):
            ring.add_node(ring.addresses[0])

    def test_unknown_address_raises(self, ring):
        with pytest.raises(UnknownNodeError):
            ring.node_by_address("nope")

    def test_hashed_placement_is_deterministic(self):
        a = ChordRing.create_network(8, hashed_placement=True)
        b = ChordRing.create_network(8, hashed_placement=True)
        assert [n.node_id for n in a.nodes] == [n.node_id for n in b.nodes]


class TestOwnership:
    def test_successor_owns_interval(self, ring):
        for node in ring.nodes:
            assert ring.successor(node.node_id).address == node.address
        # A key just after a node belongs to the next node.
        node = ring.nodes[0]
        nxt = ring.successor_of(node)
        assert ring.successor(node.node_id + 1).address == nxt.address

    def test_owner_of_key_consistent_with_hash(self, ring):
        key = "R.a=42"
        owner = ring.owner_of_key(key)
        assert owner.address == ring.successor(ring.space.hash_key(key)).address

    def test_predecessor_successor_inverse(self, ring):
        for node in ring.nodes:
            assert ring.successor_of(ring.predecessor_of(node)).address == node.address

    def test_arc_lengths_cover_space(self, ring):
        total = sum(ring.arc_length_of(node) for node in ring.nodes)
        assert total == ring.space.size


class TestRouting:
    def test_route_ends_at_owner(self, ring):
        start = ring.nodes[0]
        for key in ("a", "b", "R.a=7", "zzz"):
            identifier = ring.space.hash_key(key)
            path = ring.route_path(start, identifier)
            assert path[0] is start
            assert path[-1].address == ring.successor(identifier).address

    def test_route_from_owner_is_trivial(self, ring):
        identifier = 123
        owner = ring.successor(identifier)
        assert ring.route_path(owner, identifier) == [owner]

    def test_route_length_logarithmic(self, ring):
        # With perfect fingers the path should stay within the bit width and
        # typically around log2(N).
        start = ring.nodes[0]
        lengths = []
        for i in range(64):
            path = ring.route_path(start, ring.space.hash_key(f"key-{i}"))
            lengths.append(len(path) - 1)
        assert max(lengths) <= ring.space.bits
        assert sum(lengths) / len(lengths) <= 2 * 5  # 2*log2(32)

    def test_route_progress_monotonic(self, ring):
        start = ring.nodes[3]
        identifier = ring.space.hash_key("monotone")
        path = ring.route_path(start, identifier)
        distances = [ring.space.distance(node.node_id, identifier) for node in path]
        # Every intermediate hop strictly reduces the clockwise distance to
        # the identifier; the final hop lands on the owner, which sits at or
        # just past the identifier, so it is excluded from the check.
        intermediate = distances[:-1]
        assert all(b < a for a, b in zip(intermediate, intermediate[1:]))

    def test_lookup_returns_owner_and_hops(self, ring):
        owner, hops = ring.lookup(ring.addresses[0], "some-key")
        assert owner.address == ring.owner_of_key("some-key").address
        assert hops >= 0

    def test_finger_table_size_and_contents(self, ring):
        node = ring.nodes[0]
        fingers = ring.finger_table(node)
        assert len(fingers) == ring.space.bits
        assert fingers[0].address == ring.successor(node.node_id + 1).address

    def test_finger_cache_invalidated_on_membership_change(self, ring):
        start, target = ring.nodes[0], ring.nodes[16]
        node = ring.predecessor_of(target)
        before = ring.finger_table(node)
        assert before[0] == target
        # A routed lookup fills the cache of every node on the path.
        assert ring.route_path(start, target.node_id - 1)[-2:] == [node, target]
        joiner = ring.add_node("joiner", target.node_id - 1)
        after = ring.finger_table(node)
        assert len(after) == ring.space.bits
        assert before is not after
        assert after[0] == joiner
        assert ring.route_path(start, joiner.node_id)[-1] == joiner
        # Routed on the fingers of a moment ago, the path would visit the
        # departed node.
        ring.remove_node("joiner")
        path = ring.route_path(start, joiner.node_id)
        assert path[-1] == target and joiner not in path


class TestIdMovement:
    def test_move_node_changes_ownership(self, ring):
        node = ring.nodes[0]
        target = ring.nodes[10]
        predecessor = ring.predecessor_of(target)
        new_id = ring.space.midpoint(predecessor.node_id, target.node_id)
        if new_id in (predecessor.node_id, target.node_id):
            pytest.skip("arc too small for this seed")
        old_id, moved_id = ring.move_node(node.address, new_id)
        assert moved_id == new_id
        assert ring.node_by_address(node.address).node_id == new_id
        assert ring.successor(new_id).address == node.address
        assert old_id != new_id

    def test_move_to_same_position_is_noop(self, ring):
        node = ring.nodes[0]
        old_id, new_id = ring.move_node(node.address, node.node_id)
        assert old_id == new_id
