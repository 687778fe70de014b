"""Smoke driver for the whole benchmark suite.

Executes every figure benchmark (``bench_fig*.py`` exercises the same
``figureN()`` entry points through pytest-benchmark) plus the hot-path
microbenchmark at drastically reduced sizes, and fails loudly on any
exception.  The goal is not timing fidelity — it is catching code paths that
only the benchmarks exercise (full experiment sweeps, id movement, window
sweeps) without paying for a full benchmark run.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py            # smoke everything
    PYTHONPATH=src python -m pytest -m bench_smoke         # same, via pytest

The pytest entry point lives in ``tests/test_bench_smoke.py`` and is opt-in:
the ``bench_smoke`` marker is deselected by default (see ``pytest.ini``).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.experiments import figures

# One entry per paper figure: (figure function, smoke-scale overrides).
# The overrides keep each run to a couple of seconds while still driving the
# full experiment pipeline (warm-up, query indexing, checkpoints, GC,
# id movement) end to end.
SMOKE_FIGURES: List[Tuple[Callable, Dict[str, object]]] = [
    (figures.figure2, {"num_nodes": 12, "num_queries": 6, "checkpoints": [10, 20]}),
    (figures.figure3, {"num_nodes": 12, "num_queries": 6, "tuple_counts": [5, 10]}),
    (figures.figure4, {"num_nodes": 12, "query_counts": [3, 6], "num_tuples": 15}),
    (
        figures.figure5,
        {"num_nodes": 12, "num_queries": 6, "num_tuples": 15, "thetas": (0.5, 0.9)},
    ),
    (
        figures.figure6,
        {"num_nodes": 12, "num_queries": 6, "num_tuples": 15, "arities": (4,)},
    ),
    (
        figures.figure7,
        {"num_nodes": 12, "num_queries": 6, "num_tuples": 15, "window_sizes": [5, 10]},
    ),
    (
        figures.figure8,
        {"num_nodes": 12, "num_queries": 6, "num_tuples": 15, "window_sizes": [5, 10]},
    ),
    (figures.figure9, {"num_nodes": 12, "num_queries": 10, "num_tuples": 15}),
]


def _import_benchmark(name: str):
    """Import a sibling benchmark module (works from the repo root too)."""
    try:
        return __import__(name)
    except ImportError:
        module = __import__(f"benchmarks.{name}", fromlist=[name])
        return module


#: Microbenchmark suites: (module name, smoke runner, report runner,
#: one-line success summary).  The smoke runner uses tiny sizes (pure
#: correctness sweep); the report runner — used when ``--write-reports`` is
#: given — uses *measured* sizes so the recorded ops/sec have timing windows
#: long enough for the CI regression gate (``check_regression.py``) to
#: compare meaningfully.  ``bench_parallel`` records no rates and its
#: measured grid is minutes of work, so its report stays smoke-sized.
SMOKE_SUITES: List[
    Tuple[
        str,
        Callable[..., Dict[str, object]],
        Callable[..., Dict[str, object]],
        Callable[[Dict[str, object]], str],
    ]
] = [
    (
        "bench_micro_hotpaths",
        lambda module: module.run_all(smoke=True),
        lambda module: module.run_all(smoke=False),
        lambda report: f"{len(report['results'])} benchmarks",
    ),
    (
        "bench_parallel",
        lambda module: module.run_bench(smoke=True, workers=2),
        lambda module: module.run_bench(smoke=True, workers=2),
        lambda report: f"{report['cells']} cells",
    ),
    (
        "bench_churn",
        lambda module: module.run_bench(smoke=True),
        lambda module: module.run_bench(
            smoke=False, nodes=32, queries=100, tuples=150, events=16
        ),
        lambda report: f"{len(report['results'])} event kinds",
    ),
    (
        "bench_store_backends",
        lambda module: module.run_bench(smoke=True),
        lambda module: module.run_bench(smoke=False),
        lambda report: f"{len(report['results'])} backends",
    ),
    (
        "bench_query_lifecycle",
        lambda module: module.run_bench(smoke=True),
        lambda module: module.run_bench(smoke=False),
        lambda report: f"{len(report['results'])} lifecycle suites",
    ),
    (
        "bench_query_matching",
        lambda module: module.run_bench(smoke=True),
        lambda module: module.run_bench(smoke=False),
        lambda report: (
            f"{len(report['results'])} population sizes, "
            f"sharing fan-out {report['sharing']['shared_state_fanout']:.0f}"
        ),
    ),
    (
        "bench_observability",
        lambda module: module.run_bench(smoke=True),
        # Report stays smoke-sized: CI's dedicated gate step re-runs this
        # suite at measured sizes with --check and overwrites the report,
        # so measuring here would only double the wall-clock.
        lambda module: module.run_bench(smoke=True),
        lambda report: (
            f"off {report['gates']['off_over_baseline']:.2f}x, "
            f"on {report['gates']['on_over_baseline']:.2f}x"
        ),
    ),
]


def run_all(verbose: bool = True, reports_dir: "str | None" = None) -> List[str]:
    """Smoke-run every benchmark; returns a list of failure descriptions.

    ``reports_dir`` optionally receives one ``BENCH_<name>.json`` per
    microbenchmark suite; with it set, rate-carrying suites run at measured
    sizes (see :data:`SMOKE_SUITES`) so CI can upload the reports as
    workflow artifacts and gate them against the committed baselines.
    """
    failures: List[str] = []

    def _attempt(name: str, run: Callable[[], str]) -> None:
        try:
            summary = run()
            if verbose:
                print(f"{name}: ok ({summary})")
        except Exception:
            failures.append(f"{name} failed:\n{traceback.format_exc()}")
            if verbose:
                print(f"{name}: FAILED")

    for figure_fn, overrides in SMOKE_FIGURES:
        _attempt(
            figure_fn.__name__,
            lambda figure_fn=figure_fn, overrides=overrides: figure_fn(
                **overrides
            ).figure,
        )

    for module_name, smoke_runner, report_runner, describe in SMOKE_SUITES:
        def _run(
            module_name=module_name,
            smoke_runner=smoke_runner,
            report_runner=report_runner,
            describe=describe,
        ) -> str:
            module = _import_benchmark(module_name)
            runner = smoke_runner if reports_dir is None else report_runner
            report = runner(module)
            if reports_dir is not None:
                directory = Path(reports_dir)
                directory.mkdir(parents=True, exist_ok=True)
                short = module_name.replace("bench_", "", 1)
                (directory / f"BENCH_{short}.json").write_text(
                    json.dumps(report, indent=2, sort_keys=True)
                )
            return describe(report)

        _attempt(module_name, _run)

    return failures


def run_self_check() -> int:
    """Run the repo's static-analysis suite; returns its exit code.

    Benchmarks exercise code paths nothing else runs, so a benchmark
    session is a natural moment to also confirm the tree satisfies its own
    invariants (``python -m repro.analysis check``) before spending minutes
    measuring a build that lint would have rejected anyway.
    """
    from repro.analysis.cli import main as analysis_main

    print("self-check: python -m repro.analysis check")
    return analysis_main(["check"])


def main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--write-reports",
        metavar="DIR",
        default=None,
        help="write the smoke-sized BENCH_*.json reports into DIR",
    )
    parser.add_argument(
        "--self-check",
        action="store_true",
        help=(
            "run the static-analysis suite (python -m repro.analysis check) "
            "before the benchmarks and fail fast on findings"
        ),
    )
    args = parser.parse_args(argv)
    if args.self_check:
        code = run_self_check()
        if code != 0:
            print(
                "self-check failed: fix the findings above before "
                "benchmarking",
                file=sys.stderr,
            )
            return code
    failures = run_all(verbose=True, reports_dir=args.write_reports)
    if failures:
        print(f"\n{len(failures)} benchmark(s) failed:", file=sys.stderr)
        for failure in failures:
            print(failure, file=sys.stderr)
        return 1
    print("\nall benchmarks passed in smoke mode")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
