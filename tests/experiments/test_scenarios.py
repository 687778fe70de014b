"""Tests for the declarative scenario registry."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.scenarios import (
    SCENARIOS,
    Scenario,
    Variant,
    get_scenario,
    scenario_names,
)
from repro.experiments.config import ChurnSpec, ExperimentConfig
from repro.experiments.figures import FIGURES as FIGURE_SPECS
from repro.sql.ast import WindowSpec

EXPLORATORY = (
    "baseline",
    "skew-sweep",
    "bursty",
    "query-flood",
    "hot-key",
    "node-churn",
    "query-churn",
    "owner-failover",
    "latency",
    "store-backends",
)
#: Every scenario a figure reads (Figure 8 reads ``fig7``).
FIGURES = tuple(sorted({spec.scenario for spec in FIGURE_SPECS.values()}))


class TestRegistry:
    def test_required_scenarios_registered(self):
        for name in EXPLORATORY + FIGURES:
            assert name in SCENARIOS, name

    def test_get_scenario_unknown_name(self):
        with pytest.raises(ExperimentError, match="unknown scenario"):
            get_scenario("no-such-scenario")

    def test_scenario_names_sorted(self):
        names = scenario_names()
        assert names == sorted(names)
        assert set(EXPLORATORY) <= set(names)

    def test_register_is_idempotent_by_name(self):
        scenario = get_scenario("baseline")
        assert SCENARIOS["baseline"] is scenario


class TestCellExpansion:
    def test_grid_shape(self):
        scenario = get_scenario("skew-sweep")
        cells = scenario.cells(seeds=[1, 2], strategies=["rjoin", "worst"])
        assert len(cells) == len(scenario.default_variants) * 2 * 2
        ids = [cell.cell_id for cell in cells]
        assert len(set(ids)) == len(ids)

    def test_cell_configs_carry_variant_strategy_seed(self):
        scenario = get_scenario("skew-sweep")
        cell = scenario.cells(seeds=[5], strategies=["worst"])[0]
        assert cell.config.strategy == "worst"
        assert cell.config.seed == 5
        assert cell.config.zipf_theta == 0.0
        assert cell.config.name == "skew-sweep-theta=0.0"

    def test_overrides_apply_before_variant(self):
        scenario = get_scenario("skew-sweep")
        cell = scenario.cells(seeds=[1], overrides={"num_nodes": 20})[0]
        assert cell.config.num_nodes == 20

    def test_cell_ids_are_filesystem_safe(self):
        for name in EXPLORATORY:
            for cell in get_scenario(name).cells(seeds=[1]):
                assert "/" not in cell.cell_id
                assert " " not in cell.cell_id

    def test_variant_named(self):
        scenario = get_scenario("hot-key")
        variant = scenario.variant_named("hot=0.5")
        assert variant.overrides["hot_key_fraction"] == 0.5
        with pytest.raises(ExperimentError):
            scenario.variant_named("missing")


class TestScenarioSemantics:
    def test_bursty_uses_batch_publication(self):
        scenario = get_scenario("bursty")
        for cell in scenario.cells(seeds=[1]):
            assert cell.config.batch_size in (5, 20, 50)

    def test_query_flood_has_more_queries_than_tuples(self):
        for cell in get_scenario("query-flood").cells(seeds=[1]):
            assert cell.config.num_queries >= 10 * cell.config.num_tuples

    def test_hot_key_sweeps_fraction(self):
        fractions = sorted(
            cell.config.hot_key_fraction
            for cell in get_scenario("hot-key").cells(seeds=[1])
        )
        assert fractions == [0.0, 0.25, 0.5, 0.9]

    def test_baseline_covers_all_four_strategies(self):
        strategies = {
            cell.strategy for cell in get_scenario("baseline").cells(seeds=[1])
        }
        assert strategies == {"worst", "random", "rjoin", "first"}

    def test_full_scale_bases(self):
        scenario = get_scenario("fig3")
        assert scenario.base(full_scale=False).num_nodes == 100
        assert scenario.base(full_scale=True).num_nodes == 1000
        default_sweep = [
            v.overrides["num_tuples"] for v in scenario.variants(full_scale=False)
        ]
        paper_sweep = [
            v.overrides["num_tuples"] for v in scenario.variants(full_scale=True)
        ]
        assert default_sweep == [20, 40, 80, 160]
        assert paper_sweep[-1] == 2560

    def test_paper_scale_is_one_rule_over_the_default_base(self):
        sizes = ("num_nodes", "num_queries", "num_tuples", "warmup_tuples")
        for scenario in SCENARIOS.values():
            default, paper = scenario.base(False), scenario.base(True)
            unscaled = paper.with_overrides(**{f: getattr(default, f) for f in sizes})
            assert unscaled == default, scenario.name
            assert (paper.num_nodes, paper.num_queries, paper.num_tuples) == (
                1000,
                20000,
                1000,
            )
            assert paper.warmup_tuples == (200 if default.warmup_tuples else 0)

    def test_paper_exceptions_are_variants(self):
        fig2 = get_scenario("fig2").cells(full_scale=True)[0]
        assert fig2.config.num_tuples == 400
        assert fig2.config.checkpoints == [50, 100, 200, 400]
        for cell in get_scenario("owner-failover").cells(full_scale=True):
            assert cell.config.churn == ChurnSpec(crash_every=100, min_nodes=100)


class TestCustomScenario:
    def test_variant_apply(self):
        base = ExperimentConfig(num_nodes=16, num_queries=10, num_tuples=10)
        variant = Variant(
            label="w",
            overrides={"tuple_gc_window": WindowSpec(size=5, mode="tuples")},
        )
        config = variant.apply(base)
        assert config.tuple_gc_window.size == 5

    def test_cells_from_unregistered_scenario(self):
        scenario = Scenario(
            name="adhoc",
            description="not registered",
            axis="num_tuples",
            default_base=ExperimentConfig(num_nodes=16, num_queries=10, num_tuples=10),
            default_variants=(Variant(label="n=10", overrides={"num_tuples": 10}),),
            seeds=(1,),
        )
        cells = scenario.cells()
        assert len(cells) == 1
        assert cells[0].cell_id == "adhoc__n=10__rjoin__seed1"
        assert "adhoc" not in SCENARIOS
