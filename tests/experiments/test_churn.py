"""Churn in the experiment layer: ChurnSpec, runner wiring, scenarios, diff."""

import json

import pytest

from repro.errors import ExperimentError
from repro.experiments.cli import main as cli_main
from repro.experiments.config import ChurnSpec, ExperimentConfig
from repro.experiments.parallel import diff_grids, load_cells, run_grid
from repro.experiments.runner import build_engine, run_experiment
from repro.experiments.scenarios import get_scenario
from repro.metrics.serialize import (
    churn_from_dict,
    churn_to_dict,
    config_from_dict,
    config_to_dict,
)


class TestChurnSpec:
    def test_defaults_are_disabled(self):
        spec = ChurnSpec()
        assert not spec.enabled
        assert spec.events_for(1000) == []

    def test_events_schedule_is_deterministic_and_ordered(self):
        spec = ChurnSpec(join_every=10, leave_every=15, crash_every=30)
        events = spec.events_for(30)
        assert events == [
            (10, "join"),
            (15, "leave"),
            (20, "join"),
            (30, "join"),
            (30, "leave"),
            (30, "crash"),
        ]
        assert events == spec.events_for(30)

    def test_validation(self):
        with pytest.raises(ExperimentError):
            ChurnSpec(join_every=-1)
        with pytest.raises(ExperimentError):
            ChurnSpec(crash_every=-1)
        with pytest.raises(ExperimentError):
            ChurnSpec(min_nodes=0)

    def test_config_rejects_non_spec_churn(self):
        with pytest.raises(ExperimentError):
            ExperimentConfig(churn={"join_every": 5})

    def test_serialization_round_trip(self):
        spec = ChurnSpec(join_every=7, crash_every=13, min_nodes=5)
        assert churn_from_dict(churn_to_dict(spec)) == spec
        assert churn_to_dict(None) is None
        assert churn_from_dict(None) is None

    def test_config_round_trip_with_churn(self):
        config = ExperimentConfig(
            num_nodes=10,
            num_queries=5,
            num_tuples=5,
            churn=ChurnSpec(leave_every=3),
            hop_delay=2.5,
            delay_jitter=0.5,
        )
        data = config_to_dict(config)
        json.dumps(data)  # must be JSON-safe
        restored = config_from_dict(data)
        assert restored.churn == config.churn
        assert restored.hop_delay == 2.5
        assert restored.delay_jitter == 0.5


class TestRunnerChurn:
    def test_run_experiment_applies_churn(self):
        config = ExperimentConfig(
            name="churn-test",
            num_nodes=12,
            num_queries=10,
            num_tuples=30,
            churn=ChurnSpec(join_every=10, leave_every=15),
            seed=3,
        )
        result = run_experiment(config)
        assert result.summary["membership_events"] >= 2
        assert result.summary["joins"] >= 1
        assert result.summary["leaves"] >= 1
        # graceful-only schedule: nothing may be lost
        assert result.summary["records_lost"] == 0

    def test_run_experiment_crash_accounts_losses(self):
        config = ExperimentConfig(
            name="crash-test",
            num_nodes=12,
            num_queries=10,
            num_tuples=30,
            churn=ChurnSpec(crash_every=10),
            seed=3,
        )
        result = run_experiment(config)
        assert result.summary["crashes"] >= 1
        assert result.summary["nodes"] < 12

    def test_latency_knobs_reach_the_engine(self):
        config = ExperimentConfig(
            num_nodes=8,
            num_queries=1,
            num_tuples=1,
            hop_delay=3.0,
            delay_jitter=1.5,
        )
        engine = build_engine(config)
        assert engine.api.hop_delay == 3.0
        assert engine.api.delay_jitter == 1.5

    def test_stable_run_records_no_events(self):
        config = ExperimentConfig(
            num_nodes=10, num_queries=5, num_tuples=10, seed=3
        )
        result = run_experiment(config)
        assert result.summary["membership_events"] == 0
        assert result.summary["nodes"] == 10


class TestScenarios:
    def test_node_churn_scenario_registered(self):
        scenario = get_scenario("node-churn")
        labels = [v.label for v in scenario.variants(full_scale=False)]
        assert labels == ["stable", "join", "leave", "crash", "mixed"]

    def test_latency_scenario_registered(self):
        scenario = get_scenario("latency")
        overrides = [dict(v.overrides) for v in scenario.variants(full_scale=False)]
        assert any("hop_delay" in o for o in overrides)
        assert any("delay_jitter" in o for o in overrides)

    def test_node_churn_grid_runs_and_checkpoints(self, tmp_path):
        report = run_grid(
            "node-churn",
            tmp_path,
            workers=1,
            seeds=[41],
            overrides={
                "num_nodes": 10,
                "num_queries": 6,
                "num_tuples": 25,
                "warmup_tuples": 0,
            },
        )
        assert len(report.outcomes) == 5
        by_variant = {
            outcome.cell.variant: outcome.summary for outcome in report.outcomes
        }
        assert by_variant["stable"]["membership_events"] == 0
        assert by_variant["join"]["joins"] >= 1
        assert by_variant["leave"]["leaves"] >= 1
        assert by_variant["crash"]["crashes"] >= 1

    def test_latency_grid_runs(self, tmp_path):
        report = run_grid(
            "latency",
            tmp_path,
            workers=1,
            seeds=[41],
            overrides={
                "num_nodes": 10,
                "num_queries": 6,
                "num_tuples": 10,
                "warmup_tuples": 0,
            },
        )
        assert len(report.outcomes) == 5
        assert all(not outcome.cached for outcome in report.outcomes)


class TestReportDiff:
    def _run(self, tmp_path, name, tuples):
        return run_grid(
            "baseline",
            tmp_path / name,
            workers=1,
            seeds=[41],
            strategies=["rjoin"],
            overrides={
                "num_nodes": 10,
                "num_queries": 6,
                "num_tuples": tuples,
                "warmup_tuples": 0,
            },
        )

    def test_diff_grids_pairs_cells(self, tmp_path):
        report_a = self._run(tmp_path, "a", 10)
        report_b = self._run(tmp_path, "b", 20)
        diff = diff_grids(
            report_a.output_dir, report_b.output_dir, ["qpl_per_node", "answers"]
        )
        assert len(diff["cells"]) == 1
        entry = diff["cells"][0]["metrics"]["qpl_per_node"]
        assert entry["a"] is not None and entry["b"] is not None
        assert entry["delta"] == pytest.approx(entry["b"] - entry["a"])
        assert diff["only_in_a"] == [] and diff["only_in_b"] == []

    def test_diff_reports_missing_cells(self, tmp_path):
        report_a = self._run(tmp_path, "a", 10)
        (tmp_path / "empty").mkdir()
        diff = diff_grids(report_a.output_dir, tmp_path / "empty", ["answers"])
        assert diff["cells"] == []
        assert diff["only_in_a"]  # everything is missing from B

    def test_load_cells_skips_aggregate_and_garbage(self, tmp_path):
        report = self._run(tmp_path, "a", 10)
        (report.output_dir / "broken.json").write_text("{not json")
        cells = load_cells(report.output_dir)
        assert len(cells) == 1
        assert all("aggregate" not in cell_id for cell_id in cells)

    def test_cli_report_diff(self, tmp_path, capsys):
        report_a = self._run(tmp_path, "a", 10)
        report_b = self._run(tmp_path, "b", 20)
        import io

        out = io.StringIO()
        code = cli_main(
            [
                "report",
                "--diff", str(report_a.output_dir), str(report_b.output_dir),
                "--metrics", "qpl_per_node",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "diff:" in text
        assert "qpl_per_node" in text

    def test_cli_report_needs_scenario_or_diff(self):
        import io

        out = io.StringIO()
        assert cli_main(["report"], out=out) == 2
        assert "either --scenario" in out.getvalue()

    def test_cli_run_accepts_positional_scenario(self, tmp_path):
        import io

        out = io.StringIO()
        code = cli_main(
            [
                "run", "node-churn",
                "--seeds", "41",
                "--output", str(tmp_path),
                "--set", "num_nodes=10",
                "--set", "num_queries=4",
                "--set", "num_tuples=20",
                "--set", "warmup_tuples=0",
            ],
            out=out,
        )
        assert code == 0
        assert "node-churn: 5 cells" in out.getvalue()
