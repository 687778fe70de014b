"""Tests for engine configuration validation."""

import pytest

from repro.core.config import AUTO, RJoinConfig
from repro.errors import ConfigurationError


class TestRJoinConfig:
    def test_defaults_are_valid(self):
        config = RJoinConfig()
        assert config.num_nodes > 0
        assert config.strategy == "rjoin"
        assert config.altt_delta == AUTO

    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_nodes", 0),
            ("bits", 0),
            ("bits", 512),
            ("hop_delay", -1.0),
            ("delay_jitter", -0.5),
            ("ric_window", 0.0),
            ("ric_freshness", -1.0),
            ("gc_every_tuples", 0),
            ("rebalance_every_tuples", 0),
            ("altt_delta", -1.0),
            ("altt_delta", "whenever"),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            RJoinConfig(**{field: value})

    def test_resolve_altt_delta_auto(self):
        config = RJoinConfig(altt_delta=AUTO)
        assert config.resolve_altt_delta(10.0) == 40.0
        assert config.resolve_altt_delta(0.0) is None

    def test_resolve_altt_delta_explicit(self):
        assert RJoinConfig(altt_delta=7.5).resolve_altt_delta(100.0) == 7.5
        assert RJoinConfig(altt_delta=None).resolve_altt_delta(100.0) is None
