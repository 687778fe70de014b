"""Parallel, resumable scenario-grid execution.

The grid runner fans the cells of a scenario (variant × strategy × seed —
see :mod:`repro.experiments.scenarios`) across worker processes and streams
one JSON document per completed cell to disk.  Re-running the same grid skips
every cell whose checkpoint file already exists with a matching schema
version and cell identity, so an interrupted sweep resumes where it stopped
instead of starting over.  After the sweep the per-seed results are
aggregated into mean/stddev statistics per (variant, strategy) group and
written to ``aggregate.json``.

Workers use ``multiprocessing`` with the ``fork`` start method when the
platform offers it (cheap on Linux) and fall back to ``spawn`` otherwise;
``workers <= 1`` runs the grid serially in-process, which is also the
reference the parallel speedup benchmark (``benchmarks/bench_parallel.py``)
compares against.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import Scenario, ScenarioCell, get_scenario
# Imported as a module (attributes resolved at call time) to keep the
# import graph acyclic: serialize itself imports repro.experiments.config,
# so a from-import of its names here would break whichever module is
# imported first.
from repro.metrics import serialize

AGGREGATE_FILENAME = "aggregate.json"


# ---------------------------------------------------------------------------
# per-cell execution (worker side)
# ---------------------------------------------------------------------------
def _cell_descriptor(cell: ScenarioCell) -> Dict[str, object]:
    return {
        "cell_id": cell.cell_id,
        "scenario": cell.scenario,
        "variant": cell.variant,
        "strategy": cell.strategy,
        "seed": cell.seed,
    }


def run_cell(cell: ScenarioCell) -> Dict[str, object]:
    """Run one grid cell and return its JSON-safe payload.

    Module-level so that it pickles under every multiprocessing start method.
    """
    started = time.perf_counter()
    result = run_experiment(cell.config)
    return {
        "schema_version": serialize.RESULT_SCHEMA_VERSION,
        "cell": _cell_descriptor(cell),
        "elapsed_seconds": time.perf_counter() - started,
        "result": serialize.result_to_dict(result),
    }


# ---------------------------------------------------------------------------
# outcomes and reports (parent side)
# ---------------------------------------------------------------------------
@dataclass
class CellOutcome:
    """One grid cell's result plus how it was obtained."""

    cell: ScenarioCell
    path: Path
    payload: Dict[str, object]
    cached: bool

    @property
    def summary(self) -> Dict[str, float]:
        return dict(self.payload["result"]["summary"])  # type: ignore[index]

    @property
    def derived(self) -> Dict[str, float]:
        return dict(self.payload["result"]["derived"])  # type: ignore[index]


@dataclass
class GridReport:
    """Everything a sweep produced: per-cell outcomes plus aggregates."""

    scenario: str
    axis: str
    output_dir: Path
    outcomes: List[CellOutcome] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def computed(self) -> int:
        return sum(1 for outcome in self.outcomes if not outcome.cached)

    @property
    def cached(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cached)

    def groups(self) -> List[Dict[str, object]]:
        """Mean/stddev across seeds per (variant, strategy) group."""
        grouped: Dict[Tuple[str, str], List[CellOutcome]] = {}
        for outcome in self.outcomes:
            grouped.setdefault(
                (outcome.cell.variant, outcome.cell.strategy), []
            ).append(outcome)
        aggregated: List[Dict[str, object]] = []
        for (variant, strategy), members in sorted(grouped.items()):
            aggregated.append(
                {
                    "variant": variant,
                    "strategy": strategy,
                    "seeds": sorted(member.cell.seed for member in members),
                    "summary": serialize.aggregate_metrics(
                        [member.summary for member in members]
                    ),
                    "derived": serialize.aggregate_metrics(
                        [member.derived for member in members]
                    ),
                }
            )
        return aggregated

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": serialize.RESULT_SCHEMA_VERSION,
            "scenario": self.scenario,
            "axis": self.axis,
            "cells": len(self.outcomes),
            "computed": self.computed,
            "cached": self.cached,
            "elapsed_seconds": self.elapsed_seconds,
            "groups": self.groups(),
        }


# ---------------------------------------------------------------------------
# checkpoint files
# ---------------------------------------------------------------------------
def cell_path(output_dir: Path, cell: ScenarioCell) -> Path:
    return output_dir / f"{cell.cell_id}.json"


def _write_json(path: Path, payload: Mapping[str, object]) -> None:
    """Write atomically: a crash mid-write must not leave a corrupt checkpoint."""
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
    os.replace(tmp, path)


def _load_checkpoint(
    path: Path, cell: ScenarioCell
) -> Optional[Dict[str, object]]:
    """A previously streamed cell payload, or None when it cannot be reused."""
    if not path.is_file():
        return None
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(payload, dict):
        return None
    if payload.get("schema_version") != serialize.RESULT_SCHEMA_VERSION:
        return None
    descriptor = payload.get("cell")
    if not isinstance(descriptor, dict) or descriptor.get("cell_id") != cell.cell_id:
        return None
    result = payload.get("result")
    if not isinstance(result, dict) or "summary" not in result:
        return None
    # A checkpoint only counts for the *same* experiment: overrides,
    # --full-scale or edited scenario definitions change the resolved config
    # without changing the cell id, and must recompute rather than reuse.
    if result.get("config") != serialize.config_to_dict(cell.config):
        return None
    return payload


def _pool_context() -> multiprocessing.context.BaseContext:
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


# ---------------------------------------------------------------------------
# the grid runner
# ---------------------------------------------------------------------------
def run_grid(
    scenario: "Scenario | str",
    output_dir: "Path | str",
    workers: int = 1,
    seeds: Optional[Sequence[int]] = None,
    strategies: Optional[Sequence[str]] = None,
    overrides: Optional[Mapping[str, object]] = None,
    resume: bool = True,
    full_scale: Optional[bool] = None,
    progress: Optional[callable] = None,
) -> GridReport:
    """Run a scenario's full grid, fanning cells across ``workers`` processes.

    Parameters
    ----------
    scenario:
        A :class:`Scenario` or the name of a registered one.
    output_dir:
        Directory receiving one ``<cell_id>.json`` per cell plus
        ``aggregate.json``; created if missing.
    workers:
        Number of worker processes; ``<= 1`` runs serially in-process.
    seeds / strategies / overrides:
        Optional grid shape overrides (defaults come from the scenario).
    resume:
        Reuse existing per-cell checkpoint files instead of recomputing.
    progress:
        Optional callback invoked with every finished :class:`CellOutcome`.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if workers < 0:
        raise ExperimentError("workers must be non-negative")
    output_dir = Path(output_dir) / scenario.name
    output_dir.mkdir(parents=True, exist_ok=True)

    cells = scenario.cells(
        seeds=seeds,
        strategies=strategies,
        overrides=overrides,
        full_scale=full_scale,
    )
    started = time.perf_counter()
    outcomes_by_id: Dict[str, CellOutcome] = {}
    pending: List[ScenarioCell] = []
    for cell in cells:
        path = cell_path(output_dir, cell)
        payload = _load_checkpoint(path, cell) if resume else None
        if payload is not None:
            outcome = CellOutcome(cell=cell, path=path, payload=payload, cached=True)
            outcomes_by_id[cell.cell_id] = outcome
            if progress is not None:
                progress(outcome)
        else:
            pending.append(cell)

    def _record(cell: ScenarioCell, payload: Dict[str, object]) -> None:
        path = cell_path(output_dir, cell)
        _write_json(path, payload)
        outcome = CellOutcome(cell=cell, path=path, payload=payload, cached=False)
        outcomes_by_id[cell.cell_id] = outcome
        if progress is not None:
            progress(outcome)

    if pending:
        if workers <= 1:
            for cell in pending:
                _record(cell, run_cell(cell))
        else:
            cells_by_id = {cell.cell_id: cell for cell in pending}
            ctx = _pool_context()
            with ctx.Pool(processes=min(workers, len(pending))) as pool:
                # Stream checkpoints as cells finish (imap_unordered), so an
                # interrupted run keeps everything completed so far.
                for payload in pool.imap_unordered(run_cell, pending):
                    cell_id = payload["cell"]["cell_id"]  # type: ignore[index]
                    _record(cells_by_id[cell_id], payload)

    report = GridReport(
        scenario=scenario.name,
        axis=scenario.axis,
        output_dir=output_dir,
        outcomes=[
            outcomes_by_id[cell.cell_id]
            for cell in cells
            if cell.cell_id in outcomes_by_id
        ],
        elapsed_seconds=time.perf_counter() - started,
    )
    _write_json(output_dir / AGGREGATE_FILENAME, report.to_dict())
    return report


def load_cells(result_dir: "Path | str") -> Dict[str, Dict[str, object]]:
    """Read every per-cell checkpoint of a grid result directory.

    Returns ``cell_id -> payload`` for every parseable ``<cell_id>.json``
    (the ``aggregate.json`` summary and unreadable files are skipped).  A
    cell written under another result schema version is refused: re-run the
    grid to recompute it.
    """
    directory = Path(result_dir)
    if not directory.is_dir():
        raise ExperimentError(f"no grid result directory at {directory}")
    cells: Dict[str, Dict[str, object]] = {}
    for path in sorted(directory.glob("*.json")):
        if path.name == AGGREGATE_FILENAME:
            continue
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(payload, dict):
            continue
        descriptor = payload.get("cell")
        if not isinstance(descriptor, dict):
            continue
        version = payload.get("schema_version")
        if version != serialize.RESULT_SCHEMA_VERSION:
            raise ExperimentError(
                f"{path} has result schema version {version}, this build "
                f"reads version {serialize.RESULT_SCHEMA_VERSION}; re-run "
                "the grid to recompute it"
            )
        cell_id = descriptor.get("cell_id")
        if isinstance(cell_id, str) and cell_id:
            cells[cell_id] = payload
    return cells


def _cell_metric(payload: Mapping[str, object], name: str) -> Optional[float]:
    """Look ``name`` up among a cell's derived metrics, then its summary."""
    result = payload.get("result")
    if not isinstance(result, dict):
        return None
    for section in ("derived", "summary"):
        values = result.get(section)
        if isinstance(values, dict) and name in values:
            try:
                return float(values[name])
            except (TypeError, ValueError):
                return None
    return None


def diff_grids(
    dir_a: "Path | str",
    dir_b: "Path | str",
    metrics: Sequence[str],
) -> Dict[str, object]:
    """Compare two grid result directories cell-by-cell.

    For every cell id present in both directories the requested metrics are
    paired up (value in A, value in B, absolute delta); cells present in
    only one directory are listed separately so a regression diff cannot
    silently drop coverage.
    """
    cells_a = load_cells(dir_a)
    cells_b = load_cells(dir_b)
    shared = sorted(set(cells_a) & set(cells_b))
    compared: List[Dict[str, object]] = []
    for cell_id in shared:
        entry: Dict[str, object] = {"cell_id": cell_id, "metrics": {}}
        for metric in metrics:
            value_a = _cell_metric(cells_a[cell_id], metric)
            value_b = _cell_metric(cells_b[cell_id], metric)
            delta = (
                value_b - value_a
                if value_a is not None and value_b is not None
                else None
            )
            entry["metrics"][metric] = {"a": value_a, "b": value_b, "delta": delta}
        compared.append(entry)
    return {
        "dir_a": str(dir_a),
        "dir_b": str(dir_b),
        "metrics": list(metrics),
        "cells": compared,
        "only_in_a": sorted(set(cells_a) - set(cells_b)),
        "only_in_b": sorted(set(cells_b) - set(cells_a)),
    }


def load_aggregate(output_dir: "Path | str", scenario_name: str) -> Dict[str, object]:
    """Read a previously written ``aggregate.json`` for ``scenario_name``."""
    path = Path(output_dir) / scenario_name / AGGREGATE_FILENAME
    if not path.is_file():
        raise ExperimentError(
            f"no aggregate found at {path}; run the grid first "
            f"(python -m repro.experiments run --scenario {scenario_name})"
        )
    return json.loads(path.read_text())
