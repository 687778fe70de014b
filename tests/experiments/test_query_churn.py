"""Query-lifecycle churn in the experiment layer.

Covers the :class:`~repro.experiments.config.QueryChurnSpec` schedule, the
runner integration (removal / re-submission between publications, composed
with node churn), the ``query-churn`` and ``owner-failover`` scenarios and
the lifecycle fields of the result schema — which reads one version only:
``report --diff`` refuses a directory written under another.
"""

import io
import json

import pytest

from repro.core.engine import RJoinEngine
from repro.errors import ExperimentError
from repro.experiments.config import (
    ChurnSpec,
    ExperimentConfig,
    QueryChurnSpec,
)
from repro.experiments.cli import main
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import get_scenario, scenario_names
from repro.metrics.serialize import (
    RESULT_SCHEMA_VERSION,
    config_from_dict,
    config_to_dict,
    query_churn_from_dict,
    query_churn_to_dict,
    result_to_dict,
)


def tiny_config(**overrides):
    params = dict(
        name="query-churn-test",
        num_nodes=12,
        num_queries=8,
        num_tuples=30,
        num_relations=4,
        attributes_per_relation=3,
        value_domain=5,
        join_arity=3,
        seed=11,
    )
    params.update(overrides)
    return ExperimentConfig(**params)


class TestQueryChurnSpec:
    def test_defaults_disabled(self):
        spec = QueryChurnSpec()
        assert not spec.enabled
        assert spec.events_for(100) == []

    def test_events_schedule(self):
        spec = QueryChurnSpec(remove_every=10)
        assert spec.events_for(40) == [10, 20, 30, 40]
        assert spec.events_for(9) == []

    def test_negative_rate_rejected(self):
        with pytest.raises(ExperimentError):
            QueryChurnSpec(remove_every=-1)

    def test_config_type_validation(self):
        with pytest.raises(ExperimentError):
            ExperimentConfig(query_churn={"remove_every": 5})


class TestRunnerIntegration:
    def test_removal_and_resubmission_keep_population(self):
        result = run_experiment(
            tiny_config(query_churn=QueryChurnSpec(remove_every=10))
        )
        summary = result.summary
        assert summary["queries_removed"] == 3
        assert summary["active_queries"] == 8  # resubmitted each time
        assert summary["submitted_queries"] == 11
        assert summary["orphaned_state_records"] == 0

    def test_removal_without_resubmission_drains(self):
        result = run_experiment(
            tiny_config(
                query_churn=QueryChurnSpec(remove_every=10, resubmit=False)
            )
        )
        summary = result.summary
        assert summary["queries_removed"] == 3
        assert summary["active_queries"] == 5

    def test_removal_stops_once_no_query_is_left(self):
        result = run_experiment(
            tiny_config(
                num_queries=2,
                query_churn=QueryChurnSpec(remove_every=5, resubmit=False),
            )
        )
        assert result.summary["queries_removed"] == 2
        assert result.summary["active_queries"] == 0

    def test_the_oldest_query_goes_first(self, monkeypatch):
        submitted, removed = [], []
        submit, remove = RJoinEngine.submit, RJoinEngine.remove_query

        def spied_submit(engine, *args, **kwargs):
            handle = submit(engine, *args, **kwargs)
            submitted.append(handle.query_id)
            return handle

        def spied_remove(engine, query_id):
            removed.append(query_id)
            return remove(engine, query_id)

        monkeypatch.setattr(RJoinEngine, "submit", spied_submit)
        monkeypatch.setattr(RJoinEngine, "remove_query", spied_remove)
        run_experiment(tiny_config(query_churn=QueryChurnSpec(remove_every=5)))
        # Eight first submissions; each removal re-submits at the back.
        assert removed == submitted[:6]
        assert len(submitted) == 8 + 6

    def test_composes_with_node_churn(self):
        result = run_experiment(
            tiny_config(
                query_churn=QueryChurnSpec(remove_every=10),
                churn=ChurnSpec(join_every=12, leave_every=20),
            )
        )
        summary = result.summary
        assert summary["queries_removed"] == 3
        assert summary["membership_events"] > 0
        assert summary["orphaned_state_records"] == 0

    def test_batch_mode_dispatches_query_churn(self):
        result = run_experiment(
            tiny_config(
                batch_size=5,
                query_churn=QueryChurnSpec(remove_every=10),
            )
        )
        assert result.summary["queries_removed"] == 3

    def test_owner_failover_flag_threads_through(self):
        on = run_experiment(tiny_config(owner_failover=True))
        off = run_experiment(tiny_config(owner_failover=False))
        # static ring: the flag changes replication, not the answers
        assert on.summary["answers"] == off.summary["answers"]
        assert on.summary["failover_reregistrations"] == 0
        assert off.summary["failover_reregistrations"] == 0


class TestScenarios:
    def test_lifecycle_scenarios_registered(self):
        names = scenario_names()
        assert "query-churn" in names
        assert "owner-failover" in names

    def test_query_churn_variants(self):
        scenario = get_scenario("query-churn")
        labels = [v.label for v in scenario.variants(full_scale=False)]
        assert labels == ["stable", "remove", "churn", "churn+nodes"]
        churn_variant = scenario.variant_named("churn+nodes")
        config = scenario.config_for(churn_variant, seed=42)
        assert config.query_churn is not None and config.query_churn.enabled
        assert config.churn is not None and config.churn.enabled

    def test_owner_failover_axis(self):
        scenario = get_scenario("owner-failover")
        on = scenario.config_for(scenario.variant_named("failover"), seed=42)
        off = scenario.config_for(
            scenario.variant_named("no-failover"), seed=42
        )
        assert on.owner_failover is True
        assert off.owner_failover is False
        assert on.churn is not None and on.churn.crash_every > 0


class TestSerialization:
    def test_schema_version_bumped_for_query_lifecycle(self):
        assert RESULT_SCHEMA_VERSION >= 4

    def test_query_churn_round_trip(self):
        spec = QueryChurnSpec(remove_every=7, resubmit=False)
        assert query_churn_from_dict(query_churn_to_dict(spec)) == spec
        assert query_churn_to_dict(None) is None
        assert query_churn_from_dict(None) is None

    def test_config_round_trip_with_query_churn(self):
        config = tiny_config(
            query_churn=QueryChurnSpec(remove_every=5),
            owner_failover=False,
        )
        restored = config_from_dict(config_to_dict(config))
        assert restored.query_churn == config.query_churn
        assert restored.owner_failover is False


def _write_cell(directory, cell_id, payload):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{cell_id}.json").write_text(json.dumps(payload))


class TestOtherSchemaVersion:
    def test_report_diff_refuses_a_v12_directory(self, tmp_path):
        result = run_experiment(tiny_config(num_tuples=5, num_queries=2))
        payload = {
            "schema_version": RESULT_SCHEMA_VERSION,
            "cell": {"cell_id": "sc__v__rjoin__seed42"},
            "result": result_to_dict(result),
        }
        _write_cell(tmp_path / "current", "sc__v__rjoin__seed42", payload)
        _write_cell(
            tmp_path / "v12", "sc__v__rjoin__seed42", {**payload, "schema_version": 12}
        )
        out = io.StringIO()
        code = main(
            ["report", "--diff", str(tmp_path / "v12"), str(tmp_path / "current")],
            out=out,
        )
        text = out.getvalue()
        assert code == 2
        assert "v12/sc__v__rjoin__seed42.json" in text
        assert f"version 12, this build reads version {RESULT_SCHEMA_VERSION}" in text
