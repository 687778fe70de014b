"""CLI contract of ``python -m repro.analysis``: exit codes and formats."""

from __future__ import annotations

import json

import pytest

from repro.analysis import ALL_RULES, analyze
from repro.analysis.cli import main

from tests.analysis.conftest import FIXTURES

DETERMINISM = str(FIXTURES / "determinism")


class TestExitCodes:
    def test_findings_exit_one(self, capsys):
        assert main(["check", DETERMINISM]) == 1
        out = capsys.readouterr().out
        assert "[determinism-purity]" in out

    def test_clean_tree_exits_zero(self, capsys, tmp_path):
        clean = tmp_path / "pkg"
        (clean / "core").mkdir(parents=True)
        (clean / "core" / "ok.py").write_text("X: int = 1\n")
        assert main(["check", str(clean)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_missing_tree_exits_two(self, capsys, tmp_path):
        assert main(["check", str(tmp_path / "absent")]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_default_path_is_the_shipped_package(self, capsys):
        assert main(["check"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "option",
        [
            ["--rules", "determinism-purity"],
            ["--verbose"],
            ["--baseline", "baseline.json"],
            ["--no-baseline"],
            ["--write-baseline", "baseline.json"],
            ["--github-path-prefix", "src/repro"],
        ],
    )
    def test_a_removed_option_exits_two(self, capsys, option):
        # ``check`` takes a path and --format, nothing else.
        with pytest.raises(SystemExit) as exit_info:
            main(["check", DETERMINISM, *option])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestFormats:
    def test_json_document(self, capsys):
        code = main(["check", DETERMINISM, "--format", "json"])
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is False
        assert len(document["findings"]) == len(analyze(DETERMINISM).findings)
        assert {"rule", "path", "line", "message"} <= set(
            document["findings"][0]
        )

    def test_json_document_carries_no_suppression_fields(self, capsys):
        assert main(["check", DETERMINISM, "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert set(document) == {
            "version",
            "package_root",
            "files_analyzed",
            "rules_run",
            "ok",
            "findings",
        }
        assert document["version"] == 2
        assert document["rules_run"] == [rule.name for rule in ALL_RULES]

    def test_github_annotations(self, capsys):
        code = main(["check", DETERMINISM, "--format", "github"])
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        annotations = [line for line in lines if line.startswith("::error ")]
        # The prefix maps fixture-relative paths onto repo-relative ones.
        assert annotations == [
            f"::error file=src/repro/{f.path},line={f.line},"
            f"title=repro-lint {f.rule}::{f.message}"
            for f in analyze(DETERMINISM).findings
        ]


class TestList:
    def test_list_prints_every_rule(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.name in out

