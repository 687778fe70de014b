"""The shipped tree passes its own analyzer — the PR acceptance gate.

This is the tier-1 enforcement of the invariant CI also checks: every rule
in ``repro.analysis`` runs over ``src/repro`` itself and must come back
clean.  A change that reintroduces a bare builtin raise or reads the wall
clock in the simulated core fails here before it ever reaches CI.
"""

from __future__ import annotations

from repro.analysis import ALL_RULES, analyze, default_package_root


def test_shipped_tree_is_clean():
    report = analyze(default_package_root())
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.ok, f"repro-lint findings on the shipped tree:\n{rendered}"


def test_every_rule_actually_ran():
    report = analyze(default_package_root())
    assert report.rules_run == [rule.name for rule in ALL_RULES]
    assert len(report.rules_run) == 2
    # Sanity: the analyzer saw the real tree, not an empty directory.
    assert report.files_analyzed >= 50
