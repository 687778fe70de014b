"""Every rule fires on its seeded fixture tree and honours the allowlist.

Each fixture under ``fixtures/`` is a miniature package root with known
violations (see ``fixtures/README.md``); these tests are the proof that
``python -m repro.analysis check`` exits non-zero for each rule and that
the suppression layers silence exactly the marked lines.
"""

from __future__ import annotations

from typing import List

from repro.analysis import AnalysisReport, analyze
from repro.lint import lint_allow

from tests.analysis.conftest import FIXTURES


def run_fixture(name: str, rule: str) -> AnalysisReport:
    return analyze(FIXTURES / name, [rule])


def messages(findings) -> List[str]:
    return [finding.message for finding in findings]


class TestDeterminismPurity:
    def test_seeded_violations_fire(self):
        report = run_fixture("determinism", "determinism-purity")
        assert not report.ok
        assert len(report.active) == 5
        joined = "\n".join(messages(report.active))
        assert "time.time()" in joined
        assert "random.random()" in joined
        assert "random.Random() without a seed" in joined
        assert "unordered set" in joined
        assert {f.path for f in report.active} == {
            "core/clock.py",
            "net/transport_sim.py",
        }

    def test_sorted_iteration_is_clean(self):
        report = run_fixture("determinism", "determinism-purity")
        sorted_def_line = 31  # iterate_sorted in core/clock.py
        assert all(
            f.line < sorted_def_line
            for f in report.active
            if f.path == "core/clock.py"
        )

    def test_concurrent_runtime_is_exempt(self):
        # net/runtime_asyncio.py is seeded with wall-clock, global-RNG and
        # set-iteration constructs that would all fire elsewhere; the
        # per-file exemption must silence the whole file without touching
        # the sim-side net/ violation.
        report = run_fixture("determinism", "determinism-purity")
        assert all(f.path != "net/runtime_asyncio.py" for f in report.active)
        assert all(f.path != "net/runtime_asyncio.py" for f in report.suppressed)
        assert any(f.path == "net/transport_sim.py" for f in report.active)

    def test_comment_and_decorator_allowlists_suppress(self):
        report = run_fixture("determinism", "determinism-purity")
        assert len(report.suppressed) == 2
        assert all(f.suppressed_by == "allowlist" for f in report.suppressed)
        suppressed_msgs = "\n".join(messages(report.suppressed))
        assert "time.time()" in suppressed_msgs  # trailing comment form
        assert "time.monotonic()" in suppressed_msgs  # @lint_allow form


class TestProtocolCompleteness:
    def test_seeded_violations_fire(self):
        report = run_fixture("protocol", "protocol-completeness")
        assert not report.ok
        assert len(report.active) == 3
        joined = "\n".join(messages(report.active))
        assert "UnroutedMessage has no dispatch arm" in joined
        assert "UnsentMessage is never constructed" in joined
        assert "GhostMessage" in joined and "not a declared Message" in joined

    def test_compliant_message_stays_silent(self):
        report = run_fixture("protocol", "protocol-completeness")
        assert "HandledMessage" not in "\n".join(messages(report.active))

    def test_a_message_handed_to_a_relay_of_a_primitive_is_accounted(self):
        report = run_fixture("protocol", "protocol-completeness")
        assert "RelayedMessage" not in "\n".join(messages(report.active))


class TestExceptionDiscipline:
    def test_seeded_violations_fire(self):
        report = run_fixture("exceptions", "exception-discipline")
        assert not report.ok
        assert len(report.active) == 2
        joined = "\n".join(messages(report.active))
        assert "raise ValueError" in joined
        assert "raise RuntimeError" in joined

    def test_allowlist_and_benign_shapes(self):
        report = run_fixture("exceptions", "exception-discipline")
        # The marked ValueError raise is suppressed, not active.
        assert len(report.suppressed) == 1
        assert report.suppressed[0].suppressed_by == "allowlist"
        # Subclassing Exception and re-raising are not flagged at all.
        assert all("FixtureError" not in m for m in messages(report.active))


class TestAnnotationCompleteness:
    def test_seeded_violations_fire(self):
        report = run_fixture("annotations", "annotation-completeness")
        assert not report.ok
        assert len(report.active) == 2
        joined = "\n".join(messages(report.active))
        assert "no_return_annotation is missing annotations for: return" in joined
        assert "__init__ is missing annotations for: value, return" in joined

    def test_allowlist_suppresses(self):
        report = run_fixture("annotations", "annotation-completeness")
        assert len(report.suppressed) == 1
        assert "def tolerated" in report.suppressed[0].message


class TestParseError:
    def test_unparsable_file_is_always_an_active_finding(self):
        # Even with zero rules selected, a broken file fails the check.
        report = analyze(FIXTURES / "broken", [])
        assert not report.ok
        assert [f.rule for f in report.active] == ["parse-error"]
        assert report.active[0].path == "core/syntax_error.py"


class TestLintAllowDecorator:
    def test_decorator_is_a_runtime_no_op(self):
        def probe(x: int) -> int:
            return x + 1

        decorated = lint_allow("determinism-purity", reason="test")(probe)
        assert decorated is probe
        assert decorated(1) == 2
