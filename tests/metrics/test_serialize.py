"""Tests for the JSON result schema."""

import json

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.metrics.serialize import (
    RESULT_SCHEMA_VERSION,
    aggregate_metrics,
    config_from_dict,
    config_to_dict,
    mean_stddev,
    result_from_dict,
    result_to_dict,
    window_from_dict,
    window_to_dict,
)
from repro.sql.ast import WindowSpec

TINY = dict(num_nodes=16, num_queries=10, num_tuples=8, warmup_tuples=0, seed=3)


class TestConfigRoundTrip:
    def test_plain_config(self):
        config = ExperimentConfig(**TINY)
        data = config_to_dict(config)
        json.dumps(data)
        assert config_from_dict(data) == config

    def test_config_with_window_and_checkpoints(self):
        config = ExperimentConfig(
            tuple_gc_window=WindowSpec(size=12, mode="tuples"),
            checkpoints=[4, 8],
            batch_size=4,
            hot_key_fraction=0.5,
            **TINY,
        )
        data = config_to_dict(config)
        json.dumps(data)
        restored = config_from_dict(data)
        assert restored.tuple_gc_window == config.tuple_gc_window
        assert restored.checkpoints == [4, 8]
        assert restored.batch_size == 4
        assert restored.hot_key_fraction == 0.5

    def test_window_helpers(self):
        assert window_to_dict(None) is None
        assert window_from_dict(None) is None
        window = WindowSpec(size=5, mode="tuples")
        assert window_from_dict(window_to_dict(window)) == window


class TestResultRoundTrip:
    def test_serialized_result_is_json_safe_and_restores(self):
        config = ExperimentConfig(
            checkpoints=[4, 8], capture_per_tuple=True, **TINY
        )
        result = run_experiment(config)
        data = result_to_dict(result)
        assert data["schema_version"] == RESULT_SCHEMA_VERSION
        text = json.dumps(data)
        restored = result_from_dict(json.loads(text))
        assert restored.summary == result.summary
        assert restored.checkpoints == result.checkpoints
        assert restored.ranked_qpl == result.ranked_qpl
        assert restored.cumulative_qpl == result.cumulative_qpl
        assert restored.config == result.config
        # Derived quantities survive the round trip.
        assert restored.messages_per_node == result.messages_per_node
        assert restored.qpl_per_node == result.qpl_per_node

    def test_derived_block_matches_properties(self):
        result = run_experiment(ExperimentConfig(**TINY))
        derived = result_to_dict(result)["derived"]
        assert derived["messages_per_node"] == result.messages_per_node
        assert derived["max_qpl"] == float(result.max_qpl)


class TestAggregation:
    def test_mean_stddev(self):
        stats = mean_stddev([2.0, 4.0, 6.0])
        assert stats["mean"] == pytest.approx(4.0)
        assert stats["stddev"] == pytest.approx(1.632993, rel=1e-5)
        assert stats["min"] == 2.0 and stats["max"] == 6.0
        assert stats["count"] == 3

    def test_mean_stddev_empty(self):
        assert mean_stddev([])["count"] == 0

    def test_aggregate_metrics_uses_shared_keys_only(self):
        aggregated = aggregate_metrics(
            [{"a": 1.0, "b": 2.0}, {"a": 3.0, "c": 4.0}]
        )
        assert set(aggregated) == {"a"}
        assert aggregated["a"]["mean"] == pytest.approx(2.0)

    def test_aggregate_metrics_empty(self):
        assert aggregate_metrics([]) == {}
