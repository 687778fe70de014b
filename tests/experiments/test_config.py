"""Tests for experiment configuration."""

from dataclasses import fields

import pytest

from repro.core.config import RJoinConfig
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.config import ExperimentConfig, is_full_scale
from repro.experiments.runner import build_engine
from repro.metrics.serialize import config_to_dict, window_to_dict
from repro.sql.ast import WindowSpec

#: A valid value for every engine field that differs from the experiment's
#: default; a new ``RJoinConfig`` field fails the test below until it has one.
NON_DEFAULT = {
    "num_nodes": 5,
    "runtime": "asyncio",
    "hop_delay": 2.0,
    "delay_jitter": 0.5,
    "strategy": "worst",
    "store_backend": "sqlite",
    "allow_attribute_level_rewrites": False,
    "tuple_gc_window": WindowSpec(size=10, mode="tuples"),
    "gc_every_tuples": 7,
    "owner_failover": False,
    "id_movement": True,
    "rebalance_every_tuples": 9,
    "seed": 3,
    "observability": "on",
    "trace_path": "spans.jsonl",
}


class TestExperimentConfig:
    def test_defaults_valid(self):
        config = ExperimentConfig()
        assert config.num_nodes > 0
        assert config.strategy == "rjoin"

    def test_invalid_values(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(num_nodes=0)
        with pytest.raises(ExperimentError):
            ExperimentConfig(num_tuples=-1)
        with pytest.raises(ExperimentError):
            ExperimentConfig(join_arity=1)
        with pytest.raises(ExperimentError):
            ExperimentConfig(warmup_tuples=-1)

    def test_checkpoints_must_be_within_range(self):
        ExperimentConfig(num_tuples=100, checkpoints=[50, 100])
        with pytest.raises(ExperimentError):
            ExperimentConfig(num_tuples=100, checkpoints=[200])
        with pytest.raises(ExperimentError):
            ExperimentConfig(num_tuples=100, checkpoints=[0])

    def test_with_overrides_returns_copy(self):
        config = ExperimentConfig(num_queries=10)
        changed = config.with_overrides(num_queries=20, strategy="worst")
        assert changed.num_queries == 20
        assert changed.strategy == "worst"
        assert config.num_queries == 10

    def test_with_overrides_rejects_unknown_fields(self):
        with pytest.raises(ExperimentError, match="'nmu_nodes'.*num_nodes"):
            ExperimentConfig().with_overrides(nmu_nodes=4)

    def test_paper_scale_sets_the_paper_sizes_and_keeps_the_rest(self):
        config = ExperimentConfig(num_nodes=40, zipf_theta=0.5, warmup_tuples=20)
        paper = config.paper_scale()
        assert (paper.num_nodes, paper.num_queries, paper.num_tuples) == (
            1000,
            20000,
            1000,
        )
        assert paper.warmup_tuples == 200
        assert paper.zipf_theta == 0.5
        assert config.num_nodes == 40

    def test_paper_scale_warms_up_only_where_the_config_does(self):
        assert ExperimentConfig(warmup_tuples=0).paper_scale().warmup_tuples == 0

    def test_is_full_scale_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL_SCALE", raising=False)
        assert not is_full_scale()
        monkeypatch.setenv("REPRO_FULL_SCALE", "1")
        assert is_full_scale()
        monkeypatch.setenv("REPRO_FULL_SCALE", "0")
        assert not is_full_scale()


class TestEngineFields:
    def test_only_three_engine_defaults_are_redeclared(self):
        engine = {config_field.name for config_field in fields(RJoinConfig)}
        assert set(ExperimentConfig.__annotations__) & engine == {
            "num_nodes",
            "seed",
            "allow_attribute_level_rewrites",
        }

    @pytest.mark.parametrize(
        "name", [config_field.name for config_field in fields(RJoinConfig)]
    )
    def test_every_engine_field_reaches_the_engine(self, name, tmp_path):
        value = NON_DEFAULT[name]
        assert value != getattr(ExperimentConfig(), name)
        settings = {"num_nodes": 8, name: value}
        if name == "trace_path":
            settings.update(observability="on", trace_path=str(tmp_path / value))
        config = ExperimentConfig(**settings)
        engine = build_engine(config)
        try:
            assert getattr(engine.config, name) == settings[name]
        finally:
            engine.close()
        expected = settings[name]
        if isinstance(expected, WindowSpec):
            expected = window_to_dict(expected)
        assert config_to_dict(config)[name] == expected
