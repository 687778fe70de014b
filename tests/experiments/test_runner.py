"""Tests for the experiment runner (on deliberately tiny workloads)."""


from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_engine, build_workload, run_experiment
from repro.sql.ast import WindowSpec


TINY = dict(num_nodes=16, num_queries=12, num_tuples=20, seed=3)


class TestBuilders:
    def test_build_engine_respects_config(self):
        config = ExperimentConfig(strategy="random", id_movement=True, **TINY)
        engine = build_engine(config)
        assert len(engine.ring) == 16
        assert engine.strategy.name == "random"
        assert engine.balancer is not None

    def test_build_workload_respects_config(self):
        config = ExperimentConfig(join_arity=3, zipf_theta=0.5, **TINY)
        generator = build_workload(config)
        assert generator.spec.join_arity == 3
        assert generator.spec.zipf_theta == 0.5
        assert len(generator.catalog) == config.num_relations


class TestRunExperiment:
    def test_summary_and_distributions(self):
        result = run_experiment(ExperimentConfig(**TINY))
        assert result.summary["submitted_queries"] == 12
        assert result.summary["published_tuples"] == 20
        assert result.messages_total > 0
        assert result.messages_per_node > 0
        assert len(result.ranked_qpl) <= 16
        assert result.ranked_qpl == sorted(result.ranked_qpl, reverse=True)
        assert result.ranked_storage == sorted(result.ranked_storage, reverse=True)

    def test_checkpoints_are_recorded(self):
        config = ExperimentConfig(checkpoints=[10, 20], **TINY)
        result = run_experiment(config)
        assert set(result.checkpoints) == {10, 20}
        assert (
            result.checkpoints[20]["total_messages"]
            >= result.checkpoints[10]["total_messages"]
        )
        assert result.checkpoint_delta(20, "messages_per_node") >= 0.0

    def test_per_tuple_capture(self):
        config = ExperimentConfig(capture_per_tuple=True, **TINY)
        result = run_experiment(config)
        assert len(result.cumulative_qpl) == 20
        assert result.cumulative_qpl == sorted(result.cumulative_qpl)
        assert len(result.cumulative_storage) == 20

    def test_warmup_excluded_from_tuple_phase(self):
        config = ExperimentConfig(warmup_tuples=10, **TINY)
        result = run_experiment(config)
        assert result.warmup_baseline["published_tuples"] == 10
        assert (
            result.baseline["total_messages"]
            >= result.warmup_baseline["total_messages"]
        )
        assert result.messages_tuple_phase <= result.messages_total
        assert result.qpl_per_node >= 0.0

    def test_windowed_experiment_runs(self):
        config = ExperimentConfig(
            tuple_gc_window=WindowSpec(size=10, mode="tuples"), **TINY
        )
        result = run_experiment(config)
        assert result.summary["current_storage"] <= result.summary["total_storage"]

    def test_strategies_affect_load(self):
        rjoin = run_experiment(
            ExperimentConfig(strategy="rjoin", warmup_tuples=10, **TINY)
        )
        worst = run_experiment(
            ExperimentConfig(strategy="worst", warmup_tuples=10, **TINY)
        )
        # With informed decisions the worst strategy must not beat RJoin.
        assert worst.summary["total_qpl"] >= rjoin.summary["total_qpl"]
