"""The paper's Figures 2–9, each read off a registered scenario.

:func:`figure` runs every variant × strategy of the figure's scenario
(``fig2`` … ``fig9``; Figure 8 reads ``fig7`` with per-tuple capture) through
``Scenario.config_for`` and ``run_experiment``, the path the grid runner and
the CLI take, then reads the plotted series out of the results.  Every
distribution is keyed ``{metric}_{variant label}``.  Figure 1 is a worked
example, reproduced by ``examples/paper_example_figure1.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.experiments.scenarios import Variant, get_scenario
from repro.metrics.report import format_table

Series = Dict[str, List[float]]
Reader = Callable[[ExperimentResult], Any]
#: One run of a figure: the variant, the strategy and what it measured.
Run = Tuple[Variant, str, ExperimentResult]
#: A figure's series extraction: its runs, in variant × strategy order, to
#: ``(x values, series, distributions)``.
Extract = Callable[[List[Run]], Tuple[List[object], Series, Series]]


@dataclass
class FigureResult:
    """Data series regenerating one figure of the paper."""

    figure: str
    description: str
    x_label: str
    x_values: List[object]
    series: Series
    distributions: Series = field(default_factory=dict)
    #: Labels of the variants run, in order.
    labels: List[str] = field(default_factory=list)
    experiments: Dict[Tuple[str, str], ExperimentResult] = field(default_factory=dict)

    def to_text(self) -> str:
        """Render the figure's series as a plain-text table."""
        columns = [self.x_label] + list(self.series)
        rows = [[x, *row] for x, *row in zip(self.x_values, *self.series.values())]
        return format_table(f"{self.figure}: {self.description}", columns, rows)


def _read(*names: str) -> Dict[str, Reader]:
    """Series read straight off the ``ExperimentResult`` attribute they name."""
    return {name: attrgetter(name) for name in names}


def _axis(parameter: str) -> Callable[[Variant], object]:
    return lambda variant: variant.overrides[parameter]


def _window_size(variant: Variant) -> object:
    return int(variant.overrides["tuple_gc_window"].size)


def _final(*names: str) -> Dict[str, Reader]:
    """``final_{name}``: the last point of each named per-tuple curve (0 if empty)."""
    return {f"final_{n}": lambda r, n=n: (getattr(r, n) or [0])[-1] for n in names}


def _per_variant(
    x: Callable[[Variant], object],
    series: Mapping[str, Reader],
    distributions: Mapping[str, Reader],
) -> Extract:
    """Per variant: one x, one value of each series, one distribution each."""

    def extract(runs: List[Run]) -> Tuple[List[object], Series, Series]:
        x_values = [x(variant) for variant, _, _ in runs]
        values = {
            name: [float(read(result)) for _, _, result in runs]
            for name, read in series.items()
        }
        ranked = {
            f"{name}_{variant.label}": [float(v) for v in read(result)]
            for variant, _, result in runs
            for name, read in distributions.items()
        }
        return x_values, values, ranked

    return extract


def _fig2(runs: List[Run]) -> Tuple[List[object], Series, Series]:
    """Worst vs Random vs RJoin: traffic, QPL and SL per node at each
    checkpoint, query indexing included.

    "Request RIC" (``rjoin_ric_messages_per_node``) counts the RIC messages
    sent: none for a question that joined a chain in flight or could not
    change the choice, one per request on a cached arc and one per reply.
    Asking included, RJoin's traffic stays below Random's (seeds 42-44 in
    ``tests/experiments/test_figures.py``), 85 to 95 % of the margin being
    the routing cache its RIC replies' arcs build: at 24 nodes, 40 queries
    and 40 tuples it sends 69, 50 and 55 messages per node where routing
    would cost 156, 130 and 139, against Random's 161, 137 and 154.
    """
    checkpoints = list(runs[0][2].config.checkpoints)
    by_strategy = {strategy: result for _, strategy, result in runs}
    readings = [
        (strategy, metric)
        for strategy in by_strategy
        for metric in ("messages_per_node", "qpl_per_node", "storage_per_node")
    ] + [("rjoin", "ric_messages_per_node")]
    series = {
        f"{strategy}_{metric}": [
            by_strategy[strategy].checkpoint_delta(c, metric, since_warmup=True)
            for c in checkpoints
        ]
        for strategy, metric in readings
    }
    return checkpoints, series, {}


@dataclass(frozen=True)
class FigureSpec:
    """How one figure reads its series out of its scenario's runs."""

    scenario: str
    description: str
    x_label: str
    extract: Extract
    #: ``ExperimentConfig`` fields the figure itself needs set.
    overrides: Mapping[str, object] = field(default_factory=dict)


_TRAFFIC = ("messages_per_node_per_tuple", "ric_messages_per_node_per_tuple")
_LOAD = ("qpl_per_node", "storage_per_node")
_RANKED = {
    "qpl_ranked": attrgetter("ranked_qpl"),
    "storage_ranked": attrgetter("ranked_storage"),
}

FIGURES: Dict[str, FigureSpec] = {
    "fig2": FigureSpec(
        "fig2",
        "Effect of taking RIC information into account",
        "# of incoming tuples",
        _fig2,
    ),
    "fig3": FigureSpec(
        "fig3",
        "Effect of increasing the number of incoming tuples",
        "# of incoming tuples",
        _per_variant(
            _axis("num_tuples"), _read(*_TRAFFIC, "participating_nodes"), _RANKED
        ),
    ),
    "fig4": FigureSpec(
        "fig4",
        "Effect of increasing the number of indexed queries",
        "# of indexed queries",
        _per_variant(_axis("num_queries"), _read(*_TRAFFIC, *_LOAD), _RANKED),
    ),
    "fig5": FigureSpec(
        "fig5",
        "Effect of skewed data",
        "theta",
        _per_variant(
            _axis("zipf_theta"),
            {**_read(*_TRAFFIC, *_LOAD), "max_node_qpl": attrgetter("max_qpl")},
            _RANKED,
        ),
    ),
    "fig6": FigureSpec(
        "fig6",
        "Effect of having more complex queries",
        "# of relations joined",
        _per_variant(_axis("join_arity"), _read(*_TRAFFIC, *_LOAD), _RANKED),
    ),
    "fig7": FigureSpec(
        "fig7",
        "Effect of sliding window size (W)",
        "sliding window size (tuples)",
        _per_variant(
            _window_size,
            {
                **_read(*_TRAFFIC, "qpl_per_node"),
                "total_current_storage": lambda r: sum(r.ranked_storage_current),
            },
            _RANKED,
        ),
    ),
    "fig8": FigureSpec(
        "fig7",
        "Cumulative load created with each new tuple per window size",
        "sliding window size (tuples)",
        _per_variant(
            _window_size,
            _final("cumulative_qpl", "cumulative_storage"),
            _read("cumulative_qpl", "cumulative_storage"),
        ),
        overrides={"capture_per_tuple": True},
    ),
    "fig9": FigureSpec(
        "fig9",
        "Effect of id movement (without / with)",
        "configuration",
        _per_variant(
            attrgetter("label"),
            _read("max_storage", "max_qpl", "participating_nodes"),
            {**_RANKED, "storage_ranked": attrgetter("ranked_storage_current")},
        ),
    ),
}


def figure(
    name: str,
    seed: int = 42,
    variants: Optional[Sequence[Variant]] = None,
    **overrides: object,
) -> FigureResult:
    """Run figure ``name`` (``"fig2"`` … ``"fig9"``) and extract its series.

    ``variants`` defaults to the scenario's sweep at the current scale;
    ``overrides`` are ``ExperimentConfig`` fields, set before each variant's.
    """
    if name not in FIGURES:
        raise ExperimentError(
            f"unknown figure {name!r}; known figures: {', '.join(FIGURES)}"
        )
    spec = FIGURES[name]
    scenario = get_scenario(spec.scenario)
    settings = {**spec.overrides, **overrides}
    variants = scenario.variants() if variants is None else variants
    runs: List[Run] = [
        (v, s, run_experiment(scenario.config_for(v, s, seed, settings)))
        for v in variants
        for s in scenario.strategies
    ]
    x_values, series, distributions = spec.extract(runs)
    return FigureResult(
        figure=f"Figure {name[3:]}",
        description=spec.description,
        x_label=spec.x_label,
        x_values=x_values,
        series=series,
        distributions=distributions,
        labels=[variant.label for variant in variants],
        experiments={(v.label, s): result for v, s, result in runs},
    )
