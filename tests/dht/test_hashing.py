"""Tests for the identifier space and circular-interval arithmetic."""

import random

import pytest

from repro.dht import hashing
from repro.dht.hashing import IdentifierSpace
from repro.errors import ConfigurationError


class TestIdentifierSpace:
    def test_size(self):
        assert IdentifierSpace(8).size == 256
        assert IdentifierSpace(16).size == 65536

    def test_invalid_bits(self):
        with pytest.raises(ConfigurationError):
            IdentifierSpace(0)
        with pytest.raises(ConfigurationError):
            IdentifierSpace(200)

    def test_hash_is_deterministic_and_in_range(self):
        space = IdentifierSpace(32)
        first = space.hash_key("R.a")
        second = space.hash_key("R.a")
        assert first == second
        assert 0 <= first < space.size

    def test_hash_cache_keeps_its_bound_and_its_answers(self, monkeypatch):
        keys = [f"R.a={value}" for value in range(20)]
        fresh = [IdentifierSpace(32).hash_key(key) for key in keys]
        monkeypatch.setattr(hashing, "_HASH_CACHE_LIMIT", 8)
        space = IdentifierSpace(32)
        for _ in range(3):  # every pass resets the cache twice
            for key, identifier in zip(keys, fresh):
                assert space.hash_key(key) == identifier
                assert len(space._hash_cache) <= 8

    def test_different_keys_differ(self):
        space = IdentifierSpace(64)
        assert space.hash_key("R.a=1") != space.hash_key("R.a=2")

    def test_random_identifier_respects_seed(self):
        space = IdentifierSpace(32)
        a = space.random_identifier(random.Random(5))
        b = space.random_identifier(random.Random(5))
        assert a == b

    def test_distance_is_clockwise(self):
        space = IdentifierSpace(8)
        assert space.distance(10, 20) == 10
        assert space.distance(20, 10) == 246  # wraps around
        assert space.distance(7, 7) == 0

    def test_in_interval_default_bounds(self):
        space = IdentifierSpace(8)
        # (start, end] semantics
        assert space.in_interval(15, 10, 20)
        assert space.in_interval(20, 10, 20)
        assert not space.in_interval(10, 10, 20)
        assert not space.in_interval(25, 10, 20)

    def test_in_interval_wrapping(self):
        space = IdentifierSpace(8)
        assert space.in_interval(3, 250, 10)
        assert space.in_interval(255, 250, 10)
        assert not space.in_interval(100, 250, 10)

    def test_in_interval_degenerate_full_circle(self):
        space = IdentifierSpace(8)
        assert space.in_interval(5, 7, 7)
        assert space.in_interval(7, 7, 7, inclusive_end=True)
        assert not space.in_interval(
            7, 7, 7, inclusive_start=False, inclusive_end=False
        )

    def test_midpoint(self):
        space = IdentifierSpace(8)
        assert space.midpoint(0, 10) == 5
        assert space.midpoint(250, 6) == 0  # wraps: distance 12, half 6 -> 256 % 256

    def test_power_step(self):
        space = IdentifierSpace(8)
        assert space.power_step(10, 3) == 18
        assert space.power_step(250, 3) == 2
        with pytest.raises(ConfigurationError):
            space.power_step(0, 8)

    def test_equality(self):
        assert IdentifierSpace(16) == IdentifierSpace(16)
        assert IdentifierSpace(16) != IdentifierSpace(32)
