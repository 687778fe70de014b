"""Tests for the ``python -m repro.experiments`` CLI."""

import io

import pytest

from repro.experiments.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


TINY_SETTINGS = (
    "--set",
    "num_nodes=16",
    "--set",
    "num_queries=8",
    "--set",
    "num_tuples=6",
    "--set",
    "warmup_tuples=0",
)


class TestList:
    def test_lists_scenarios(self):
        code, output = run_cli("list")
        assert code == 0
        for name in ("baseline", "skew-sweep", "bursty", "hot-key"):
            assert name in output

    def test_verbose_lists_variants(self):
        code, output = run_cli("list", "--verbose")
        assert code == 0
        assert "theta=1.2" in output


class TestRun:
    def test_run_writes_results_and_reports(self, tmp_path):
        code, output = run_cli(
            "run",
            "--scenario",
            "skew-sweep",
            "--workers",
            "2",
            "--seeds",
            "1,2",
            "--output",
            str(tmp_path),
            *TINY_SETTINGS,
        )
        assert code == 0
        assert "10 computed" in output
        cell_files = list((tmp_path / "skew-sweep").glob("skew-sweep__*.json"))
        assert len(cell_files) == 10

        code, output = run_cli(
            "report", "--scenario", "skew-sweep", "--output", str(tmp_path)
        )
        assert code == 0
        assert "theta=0.9" in output
        assert "±" in output

    def test_second_run_uses_cache(self, tmp_path):
        args = (
            "run",
            "--scenario",
            "query-flood",
            "--seeds",
            "1",
            "--output",
            str(tmp_path),
            *TINY_SETTINGS,
            "--set",
            "num_queries=8",
        )
        code, first = run_cli(*args)
        assert code == 0 and "3 computed" in first
        code, second = run_cli(*args)
        assert code == 0 and "3 cached" in second

    def test_unknown_scenario_is_reported(self, tmp_path):
        code, output = run_cli(
            "run", "--scenario", "nope", "--output", str(tmp_path)
        )
        assert code == 2
        assert "unknown scenario" in output

    def test_bad_set_option_is_reported(self, tmp_path):
        code, output = run_cli(
            "run",
            "--scenario",
            "baseline",
            "--output",
            str(tmp_path),
            "--set",
            "num_nodes",
        )
        assert code == 2
        assert "key=value" in output

    def test_bad_seeds_are_reported(self, tmp_path):
        code, output = run_cli(
            "run", "baseline", "--output", str(tmp_path), "--seeds", "1,x"
        )
        assert code == 2
        assert "--seeds expects comma-separated integers" in output
        assert not list(tmp_path.rglob("*.json"))

    def test_unknown_set_field_is_reported(self, tmp_path):
        code, output = run_cli(
            "run", "baseline", "--output", str(tmp_path), "--set", "nmu_nodes=4"
        )
        assert code == 2
        assert "unknown config field 'nmu_nodes'" in output
        assert "num_nodes" in output

    @pytest.mark.parametrize(
        "setting",
        [
            "hop_delay=NaN",
            "hop_delay=Infinity",
            "delay_jitter=NaN",
            "delay_jitter=-Infinity",
        ],
    )
    def test_a_non_finite_delay_is_reported(self, tmp_path, setting):
        code, output = run_cli(
            "run", "baseline", "--output", str(tmp_path), "--set", setting
        )
        assert code == 2
        assert "delays must be finite" in output
        assert not list(tmp_path.rglob("*.json"))


class TestReport:
    def test_report_without_run_fails_gracefully(self, tmp_path):
        code, output = run_cli(
            "report", "--scenario", "skew-sweep", "--output", str(tmp_path)
        )
        assert code == 2
        assert "no aggregate" in output

    def test_custom_metrics(self, tmp_path):
        run_cli(
            "run",
            "--scenario",
            "bursty",
            "--seeds",
            "1",
            "--output",
            str(tmp_path),
            *TINY_SETTINGS,
        )
        code, output = run_cli(
            "report",
            "--scenario",
            "bursty",
            "--output",
            str(tmp_path),
            "--metrics",
            "total_messages,answers",
        )
        assert code == 0
        assert "total_messages" in output
