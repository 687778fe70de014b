"""Every rule fires on its seeded fixture tree and honours its exemptions.

Each fixture under ``fixtures/`` is a miniature package root with known
violations (see ``fixtures/README.md``); these tests are the proof that
``python -m repro.analysis check`` exits non-zero for each rule and that
the exemptions written into each rule silence exactly what they name.
"""

from __future__ import annotations

import textwrap
from pathlib import Path
from typing import List

import pytest

from repro.analysis import AnalysisReport, analyze
from repro.errors import AnalysisError

from tests.analysis.conftest import FIXTURES


def run_fixture(name: str, rule: str) -> AnalysisReport:
    return analyze(FIXTURES / name, [rule])


def messages(findings) -> List[str]:
    return [finding.message for finding in findings]


def run_snippet(root: Path, rel: str, source: str, rule: str) -> AnalysisReport:
    """Analyze a one-file package root holding ``source`` at ``rel``."""
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return analyze(root, [rule])


class TestDeterminismPurity:
    def test_seeded_violations_fire(self):
        report = run_fixture("determinism", "determinism-purity")
        assert not report.ok
        assert len(report.findings) == 7
        joined = "\n".join(messages(report.findings))
        assert "time.time()" in joined
        assert "time.perf_counter()" in joined
        assert "random.random()" in joined
        assert "random.Random() without a seed" in joined
        assert "unordered set" in joined
        assert {f.path for f in report.findings} == {
            "core/clock.py",
            "data/store.py",
            "metrics/load.py",
            "net/transport_sim.py",
        }

    def test_sorted_iteration_is_clean(self):
        report = run_fixture("determinism", "determinism-purity")
        sorted_def_line = 29  # iterate_sorted in core/clock.py
        assert all(
            f.line < sorted_def_line
            for f in report.findings
            if f.path == "core/clock.py"
        )

    def test_concurrent_runtime_is_exempt(self):
        # net/runtime_asyncio.py is seeded with wall-clock, global-RNG and
        # set-iteration constructs that would all fire elsewhere; the
        # per-file exemption must silence the whole file without touching
        # the sim-side net/ violation.
        report = run_fixture("determinism", "determinism-purity")
        assert all(f.path != "net/runtime_asyncio.py" for f in report.findings)
        assert any(f.path == "net/transport_sim.py" for f in report.findings)

    def test_obs_is_out_of_scope(self):
        # obs/spans.py reads perf_counter, as the real span timing does.
        report = run_fixture("determinism", "determinism-purity")
        assert all(not f.path.startswith("obs/") for f in report.findings)

    @pytest.mark.parametrize(
        "package, in_scope",
        [
            ("core", True),
            ("net", True),
            ("dht", True),
            ("data", True),
            ("metrics", True),
            ("obs", False),
            ("experiments", False),
        ],
    )
    def test_scope_is_every_layer_a_sim_delivery_crosses(
        self, tmp_path, package, in_scope
    ):
        source = "import time\n\ndef stamp():\n    return time.time()\n"
        report = run_snippet(
            tmp_path, f"{package}/mod.py", source, "determinism-purity"
        )
        assert (not report.ok) is in_scope

    @pytest.mark.parametrize(
        "source, called",
        [
            ("import time\nx = time.time_ns()\n", "time.time_ns()"),
            ("from time import monotonic\nx = monotonic()\n", "monotonic()"),
            ("import datetime\nx = datetime.datetime.now()\n", "now()"),
            ("from datetime import date\nx = date.today()\n", "today()"),
            ("import os\nx = os.urandom(8)\n", "os.urandom()"),
            ("import uuid\nx = uuid.uuid4()\n", "uuid.uuid4()"),
            ("import secrets\nx = secrets.token_hex()\n", "secrets.token_hex()"),
            ("import random\nx = random.SystemRandom()\n", "SystemRandom"),
        ],
    )
    def test_every_banned_source_of_nondeterminism_fires(
        self, tmp_path, source, called
    ):
        report = run_snippet(tmp_path, "core/mod.py", source, "determinism-purity")
        assert len(report.findings) == 1
        assert called in report.findings[0].message

    @pytest.mark.parametrize(
        "source",
        [
            "import random\nrng = random.Random(7)\nx = rng.random()\n",
            "import time\ntime.sleep(0)\n",
            "def f(d):\n    return [k for k in d]\n",
        ],
    )
    def test_seeded_and_ordered_shapes_stay_silent(self, tmp_path, source):
        report = run_snippet(tmp_path, "core/mod.py", source, "determinism-purity")
        assert report.ok, messages(report.findings)

    def test_a_name_annotated_as_a_set_is_tracked(self, tmp_path):
        source = """
            from typing import Set

            def order(items):
                seen: Set[str] = compute(items)
                return [item for item in seen]
        """
        report = run_snippet(tmp_path, "core/mod.py", source, "determinism-purity")
        assert [f.line for f in report.findings] == [6]
        assert "unordered set" in report.findings[0].message

    def test_a_set_name_does_not_leak_into_a_nested_function(self, tmp_path):
        # ``seen`` is a set in outer() but a list in inner(): each function
        # body is its own scope pass.
        source = """
            def outer(items):
                seen = set(items)

                def inner():
                    seen = list(items)
                    return [item for item in seen]

                return inner, sorted(seen)
        """
        report = run_snippet(tmp_path, "core/mod.py", source, "determinism-purity")
        assert report.ok, messages(report.findings)


class TestExceptionDiscipline:
    def test_seeded_violations_fire(self):
        report = run_fixture("exceptions", "exception-discipline")
        assert not report.ok
        assert len(report.findings) == 4
        joined = "\n".join(messages(report.findings))
        assert "raise ValueError" in joined
        assert "raise RuntimeError" in joined
        assert joined.count("raise AttributeError") == 2

    def test_benign_shapes_stay_silent(self):
        report = run_fixture("exceptions", "exception-discipline")
        # Subclassing Exception and re-raising are not flagged at all.
        assert all("FixtureError" not in m for m in messages(report.findings))

    def test_only_a_module_level_getattr_may_raise_attribute_error(self):
        report = run_fixture("exceptions", "exception-discipline")
        flagged = {
            f.line for f in report.findings if "AttributeError" in f.message
        }
        source = (FIXTURES / "exceptions" / "core" / "raises.py").read_text()
        raises = {
            number
            for number, line in enumerate(source.splitlines(), start=1)
            if line.strip().startswith("raise AttributeError")
        }
        # lookup() and Proxy.__getattr__ fire; the PEP 562 hook, last, does not.
        assert flagged == raises - {max(raises)}
        assert len(flagged) == 2

    @pytest.mark.parametrize(
        "statement",
        [
            "raise NotImplementedError",
            "raise StopIteration",
            "raise StopAsyncIteration",
            "raise EngineError('bad') from exc",
        ],
    )
    def test_protocol_and_project_raises_are_exempt(self, tmp_path, statement):
        source = f"def f(exc):\n    {statement}\n"
        report = run_snippet(tmp_path, "core/mod.py", source, "exception-discipline")
        assert report.ok, messages(report.findings)

    @pytest.mark.parametrize(
        "statement, name",
        [
            ("raise ValueError('bad') from exc", "ValueError"),
            ("raise Exception", "Exception"),
            ("raise KeyError(exc)", "KeyError"),
        ],
    )
    def test_a_builtin_fires_in_any_package(self, tmp_path, statement, name):
        # The rule covers the whole tree, not a scope of directories.
        source = f"def f(exc):\n    {statement}\n"
        report = run_snippet(
            tmp_path, "experiments/mod.py", source, "exception-discipline"
        )
        assert [m.split(":")[0] for m in messages(report.findings)] == [
            f"raise {name}"
        ]


class TestParseError:
    def test_unparsable_file_is_always_an_active_finding(self):
        # Even with zero rules selected, a broken file fails the check.
        report = analyze(FIXTURES / "broken", [])
        assert not report.ok
        assert [f.rule for f in report.findings] == ["parse-error"]
        assert report.findings[0].path == "core/syntax_error.py"


def test_rule_names_scope_the_run():
    report = analyze(FIXTURES / "exceptions", ["exception-discipline"])
    assert report.rules_run == ["exception-discipline"]
    assert {f.rule for f in report.findings} == {"exception-discipline"}
    # The same tree under another rule alone is clean.
    assert analyze(FIXTURES / "exceptions", ["determinism-purity"]).ok


def test_an_unknown_or_deleted_rule_is_an_analysis_error():
    # annotation-completeness is mypy --strict's job (pyproject.toml).
    with pytest.raises(AnalysisError, match="unknown rule"):
        analyze(FIXTURES / "determinism", ["annotation-completeness"])
