"""Command-line entry point for the scenario grid.

::

    python -m repro.experiments list
    python -m repro.experiments run --scenario skew-sweep --workers 4
    python -m repro.experiments report --scenario skew-sweep
    python -m repro.experiments report --diff results-main/skew-sweep results-pr/skew-sweep

``run`` executes a scenario's variant × strategy × seed grid (in parallel
when ``--workers > 1``), streaming one JSON checkpoint per cell under the
output directory so that re-running resumes instead of recomputing.
``report`` renders the aggregated mean/stddev statistics of a finished grid;
``report --diff A B`` compares two grid result directories cell-by-cell
(regression diffs between branches, scales or machines).  A result file of
another schema version is refused (exit 2); re-run its grid to recompute it.
``--set`` takes any :class:`~repro.experiments.config.ExperimentConfig`
field, engine fields included; an unknown name is refused the same way.

Lifecycle scenarios (``query-churn``, ``owner-failover``) are best viewed
with their own counters, e.g.::

    python -m repro.experiments report --scenario query-churn \
        --metrics queries_removed,records_vacuumed,answers
    python -m repro.experiments report --scenario owner-failover \
        --metrics failover_reregistrations,answers_rerouted,answers
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence

from repro.errors import ExperimentError, ReproError
from repro.experiments.parallel import diff_grids, load_aggregate, run_grid
from repro.experiments.scenarios import SCENARIOS, get_scenario
from repro.metrics.report import format_table

DEFAULT_OUTPUT_DIR = "results"
#: Metrics shown by ``report`` unless ``--metrics`` says otherwise; names are
#: looked up first among the derived per-figure quantities, then in the raw
#: metrics summary.
DEFAULT_REPORT_METRICS = (
    "qpl_per_node",
    "storage_per_node",
    "messages_per_node_per_tuple",
    "answers",
)


def _parse_override(text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _parse_set_options(pairs: Sequence[str]) -> Dict[str, object]:
    overrides: Dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ExperimentError(
                f"--set expects key=value, got {pair!r}"
            )
        key, _, value = pair.partition("=")
        overrides[key.strip()] = _parse_override(value.strip())
    return overrides


def _parse_seeds(text: str) -> List[int]:
    try:
        return [int(seed) for seed in text.split(",")]
    except ValueError:
        raise ExperimentError(
            f"--seeds expects comma-separated integers, got {text!r}"
        ) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run and report scenario-driven experiment grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser("list", help="list registered scenarios")
    list_cmd.add_argument(
        "--verbose", action="store_true", help="include variants and seeds"
    )

    run_cmd = sub.add_parser("run", help="run one scenario's grid")
    run_cmd.add_argument(
        "scenario_pos", nargs="?", metavar="SCENARIO", default=None,
        help="registered scenario name (positional form of --scenario)",
    )
    run_cmd.add_argument("--scenario", default=None, help="registered scenario name")
    run_cmd.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (<=1 runs serially; default 1)",
    )
    run_cmd.add_argument(
        "--seeds", default=None,
        help="comma-separated seeds overriding the scenario's defaults",
    )
    run_cmd.add_argument(
        "--strategies", default=None,
        help="comma-separated strategies overriding the scenario's defaults",
    )
    run_cmd.add_argument(
        "--output", default=DEFAULT_OUTPUT_DIR,
        help=f"output directory (default: {DEFAULT_OUTPUT_DIR}/)",
    )
    run_cmd.add_argument(
        "--no-resume", action="store_true",
        help="recompute every cell even when a checkpoint exists",
    )
    run_cmd.add_argument(
        "--full-scale", action="store_true",
        help="use the paper-scale configuration (same as REPRO_FULL_SCALE=1)",
    )
    run_cmd.add_argument(
        "--set", dest="set_options", action="append", default=[],
        metavar="KEY=VALUE",
        help="override a base-config field (repeatable), e.g. --set num_nodes=40",
    )

    report_cmd = sub.add_parser(
        "report",
        help="print a finished grid's aggregates, or diff two result dirs",
    )
    report_cmd.add_argument("--scenario", default=None)
    report_cmd.add_argument("--output", default=DEFAULT_OUTPUT_DIR)
    report_cmd.add_argument(
        "--diff", nargs=2, metavar=("DIR_A", "DIR_B"), default=None,
        help="compare two grid result directories cell-by-cell "
        "(e.g. results-main/skew-sweep results-pr/skew-sweep)",
    )
    report_cmd.add_argument(
        "--metrics", default=None,
        help="comma-separated metric names (default: "
        + ",".join(DEFAULT_REPORT_METRICS)
        + ")",
    )
    return parser


def _cmd_list(args: argparse.Namespace, out) -> int:
    rows = []
    for name in sorted(SCENARIOS):
        scenario = SCENARIOS[name]
        rows.append(
            [
                name,
                scenario.axis,
                len(scenario.variants(full_scale=False)),
                "/".join(scenario.strategies),
                ",".join(str(seed) for seed in scenario.seeds),
            ]
        )
    print(
        format_table(
            "Registered scenarios",
            ["scenario", "axis", "variants", "strategies", "seeds"],
            rows,
        ),
        file=out,
    )
    if args.verbose:
        for name in sorted(SCENARIOS):
            scenario = SCENARIOS[name]
            print(f"\n{name}: {scenario.description}", file=out)
            for variant in scenario.variants(full_scale=False):
                print(f"  - {variant.label}", file=out)
    return 0


def _cmd_run(args: argparse.Namespace, out) -> int:
    scenario_name = args.scenario or args.scenario_pos
    if scenario_name is None:
        raise ExperimentError(
            "run needs a scenario name (positional or --scenario); "
            "see `python -m repro.experiments list`"
        )
    seeds = _parse_seeds(args.seeds) if args.seeds else None
    strategies = args.strategies.split(",") if args.strategies else None
    overrides = _parse_set_options(args.set_options)
    scenario = get_scenario(scenario_name)

    def _progress(outcome) -> None:
        state = "cached" if outcome.cached else "done"
        print(f"[{state}] {outcome.cell.cell_id}", file=out)

    report = run_grid(
        scenario,
        output_dir=args.output,
        workers=args.workers,
        seeds=seeds,
        strategies=strategies,
        overrides=overrides or None,
        resume=not args.no_resume,
        full_scale=True if args.full_scale else None,
        progress=_progress,
    )
    print(
        f"\n{report.scenario}: {len(report.outcomes)} cells "
        f"({report.computed} computed, {report.cached} cached) "
        f"in {report.elapsed_seconds:.2f}s with workers={args.workers}",
        file=out,
    )
    print(f"results: {report.output_dir}", file=out)
    return 0


def _format_value(value) -> str:
    return "-" if value is None else f"{value:.2f}"


def _cmd_report_diff(args: argparse.Namespace, out) -> int:
    metrics = (
        args.metrics.split(",") if args.metrics else list(DEFAULT_REPORT_METRICS)
    )
    dir_a, dir_b = args.diff
    diff = diff_grids(dir_a, dir_b, metrics)
    columns = ["cell"]
    for metric in metrics:
        columns.extend([f"{metric} A", f"{metric} B", "Δ"])
    rows: List[List[object]] = []
    for entry in diff["cells"]:
        row: List[object] = [entry["cell_id"]]
        for metric in metrics:
            pair = entry["metrics"][metric]
            row.extend(
                [
                    _format_value(pair["a"]),
                    _format_value(pair["b"]),
                    _format_value(pair["delta"]),
                ]
            )
        rows.append(row)
    title = f"diff: {dir_a} vs {dir_b} ({len(rows)} shared cells)"
    print(format_table(title, columns, rows), file=out)
    for label, missing in (("A", diff["only_in_b"]), ("B", diff["only_in_a"])):
        if missing:
            print(f"\ncells missing from {label}:", file=out)
            for cell_id in missing:
                print(f"  - {cell_id}", file=out)
    return 0


def _cmd_report(args: argparse.Namespace, out) -> int:
    if args.diff is not None:
        return _cmd_report_diff(args, out)
    if args.scenario is None:
        raise ExperimentError(
            "report needs either --scenario (aggregate view) or "
            "--diff DIR_A DIR_B (cell-by-cell comparison)"
        )
    aggregate = load_aggregate(args.output, args.scenario)
    metrics = (
        args.metrics.split(",") if args.metrics else list(DEFAULT_REPORT_METRICS)
    )
    columns = ["variant", "strategy", "seeds"] + [
        f"{metric} (mean±sd)" for metric in metrics
    ]
    rows: List[List[object]] = []
    for group in aggregate.get("groups", []):
        row: List[object] = [
            group["variant"],
            group["strategy"],
            len(group.get("seeds", [])),
        ]
        for metric in metrics:
            stats = group.get("derived", {}).get(metric) or group.get(
                "summary", {}
            ).get(metric)
            if stats is None:
                row.append("-")
            else:
                row.append(f"{stats['mean']:.2f}±{stats['stddev']:.2f}")
        rows.append(row)
    title = (
        f"{aggregate['scenario']} (axis: {aggregate.get('axis', '?')}, "
        f"{aggregate.get('cells', 0)} cells)"
    )
    print(format_table(title, columns, rows), file=out)
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args, out)
        if args.command == "run":
            return _cmd_run(args, out)
        if args.command == "report":
            return _cmd_report(args, out)
    except ReproError as exc:
        print(f"error: {exc}", file=out)
        return 2
    raise ExperimentError(f"unhandled command {args.command!r}")
