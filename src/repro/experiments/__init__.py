"""Experiment harness reproducing the paper's evaluation (Section 8).

* :mod:`repro.experiments.config` — experiment parameters: the engine's
  :class:`~repro.core.config.RJoinConfig` plus the workload and checkpoints,
  with the paper-scale and the reduced default-scale presets,
* :mod:`repro.experiments.runner` — runs one experiment end to end on the
  RJoin engine and collects every metric series the figures need,
* :mod:`repro.experiments.scenarios` — the declarative scenario registry:
  named, parameterized experiment grids (``baseline``, ``skew-sweep``,
  ``window-churn``, ``bursty``, ``query-flood``, ``hot-key``, plus one
  scenario per paper figure),
* :mod:`repro.experiments.parallel` — the multiprocessing grid runner with
  per-cell JSON checkpointing, resume and mean/stddev aggregation,
* :mod:`repro.experiments.cli` — the ``python -m repro.experiments``
  ``run``/``list``/``report`` entry point,
* :mod:`repro.experiments.figures` — one function per figure (Figures 2–9),
  each a thin consumer of the scenario registry returning a
  :class:`~repro.experiments.figures.FigureResult` with the same series the
  paper plots.
"""

from repro.experiments.config import ChurnSpec, ExperimentConfig, is_full_scale
from repro.experiments.figures import (
    FigureResult,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
)
from repro.experiments.parallel import (
    CellOutcome,
    GridReport,
    diff_grids,
    load_cells,
    run_cell,
    run_grid,
)
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.experiments.scenarios import (
    SCENARIOS,
    Scenario,
    ScenarioCell,
    Variant,
    get_scenario,
    register,
    scenario_names,
)

__all__ = [
    "CellOutcome",
    "ChurnSpec",
    "ExperimentConfig",
    "ExperimentResult",
    "FigureResult",
    "GridReport",
    "SCENARIOS",
    "Scenario",
    "ScenarioCell",
    "Variant",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "diff_grids",
    "get_scenario",
    "is_full_scale",
    "load_cells",
    "register",
    "run_cell",
    "run_experiment",
    "run_grid",
    "scenario_names",
]
