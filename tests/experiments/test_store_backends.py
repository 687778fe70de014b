"""The ``store-backends`` scenario and the backend config plumbing."""

from __future__ import annotations

import pytest

from repro.data.backends import BACKEND_NAMES
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenarios import get_scenario
from repro.metrics.serialize import (
    RESULT_SCHEMA_VERSION,
    config_from_dict,
    config_to_dict,
)


class TestConfigPlumbing:
    def test_store_backend_default_and_validation(self):
        assert ExperimentConfig().store_backend == "memory"
        with pytest.raises(ConfigurationError, match="unknown store backend"):
            ExperimentConfig(store_backend="floppy")

    def test_store_backend_serialization_round_trip(self):
        config = ExperimentConfig(store_backend="sqlite")
        data = config_to_dict(config)
        assert data["store_backend"] == "sqlite"
        assert config_from_dict(data).store_backend == "sqlite"

    def test_schema_version_bumped_for_store_backend(self):
        # v3 introduced the store_backend field; older checkpoints must be
        # recomputed rather than silently reused without the field.
        assert RESULT_SCHEMA_VERSION >= 3


class TestScenario:
    def test_scenario_covers_every_registered_backend(self):
        scenario = get_scenario("store-backends")
        assert scenario.axis == "store_backend"
        labels = [v.label for v in scenario.variants(full_scale=False)]
        assert labels == list(BACKEND_NAMES)
        for variant in scenario.variants(full_scale=False):
            config = scenario.config_for(variant, strategy="rjoin", seed=1)
            assert config.store_backend == variant.label
            assert config.tuple_gc_window is not None, "scenario must apply GC pressure"

    def test_cells_expand_over_backends_and_seeds(self):
        scenario = get_scenario("store-backends")
        cells = scenario.cells(seeds=[1, 2], full_scale=False)
        assert len(cells) == len(BACKEND_NAMES) * 2
        assert {cell.config.store_backend for cell in cells} == set(BACKEND_NAMES)
