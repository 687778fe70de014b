"""Tests for engine configuration validation."""

import pytest

from repro.core.config import RJoinConfig
from repro.core.engine import RJoinEngine
from repro.errors import ConfigurationError


class TestRJoinConfig:
    def test_defaults_are_valid(self):
        config = RJoinConfig()
        assert config.num_nodes > 0
        assert config.strategy == "rjoin"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_nodes", 0),
            ("hop_delay", -1.0),
            ("hop_delay", float("nan")),
            ("hop_delay", float("inf")),
            ("hop_delay", float("-inf")),
            ("delay_jitter", -0.5),
            ("delay_jitter", float("nan")),
            ("delay_jitter", float("inf")),
            ("gc_every_tuples", 0),
            ("rebalance_every_tuples", 0),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            RJoinConfig(**{field: value})


class TestDerivedAlttDelta:
    """Δ is four maximum transit times: 48 hops of one time unit by default."""

    def test_a_default_engine_keeps_tuples_four_transit_times(self):
        engine = RJoinEngine(RJoinConfig(num_nodes=4))
        assert engine.api.max_transit_delay() == 48.0
        assert all(node.altt.delta == 192.0 for node in engine.nodes.values())

    def test_jitter_lengthens_the_retention(self):
        engine = RJoinEngine(RJoinConfig(num_nodes=4, delay_jitter=2.0))
        assert all(node.altt.delta == 200.0 for node in engine.nodes.values())

    def test_no_delay_keeps_tuples_for_ever(self):
        engine = RJoinEngine(RJoinConfig(num_nodes=4, hop_delay=0.0))
        assert all(node.altt.delta is None for node in engine.nodes.values())

    def test_a_joining_node_keeps_tuples_as_long(self):
        engine = RJoinEngine(RJoinConfig(num_nodes=4, hop_delay=0.5))
        joined = engine.add_node()
        assert engine.nodes[joined].altt.delta == 96.0
