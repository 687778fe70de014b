"""One function per figure of the paper's experimental section.

Every ``figureN()`` function runs the corresponding experiment(s) and returns
a :class:`FigureResult` holding the same data series the paper plots, plus a
plain-text rendering used by the benchmark harness.  The base configurations
and default sweeps come from the scenario registry
(:mod:`repro.experiments.scenarios` — scenarios ``fig2`` … ``fig9``), so the
figures, the parallel grid runner and the CLI all share one set of
definitions; passing ``REPRO_FULL_SCALE=1`` (or explicit keyword overrides)
switches to the paper's sizes.

Figure 1 of the paper is a worked example rather than an experiment; it is
reproduced by ``examples/paper_example_figure1.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.experiments.scenarios import get_scenario
from repro.metrics.report import format_table, participation_count
from repro.sql.ast import WindowSpec


@dataclass
class FigureResult:
    """Data series regenerating one figure of the paper."""

    figure: str
    description: str
    parameters: Dict[str, object]
    x_label: str
    x_values: List[object]
    series: Dict[str, List[float]]
    distributions: Dict[str, List[float]] = field(default_factory=dict)
    experiments: Dict[str, ExperimentResult] = field(default_factory=dict)

    def to_text(self) -> str:
        """Render the figure's series as a plain-text table."""
        columns = [self.x_label] + list(self.series.keys())
        rows = []
        for index, x in enumerate(self.x_values):
            row = [x]
            for name in self.series:
                values = self.series[name]
                row.append(values[index] if index < len(values) else "")
            rows.append(row)
        title = f"{self.figure}: {self.description}"
        return format_table(title, columns, rows)

    def series_named(self, name: str) -> List[float]:
        """Convenience accessor for one series."""
        return self.series[name]


def _scenario_base(name: str, seed: int) -> ExperimentConfig:
    """The registry's base configuration for a figure scenario, re-seeded."""
    return get_scenario(name).base().with_overrides(seed=seed)


def _scenario_sweep(name: str, parameter: str) -> List[object]:
    """The default sweep values of a figure scenario's variants."""
    return [
        variant.overrides[parameter] for variant in get_scenario(name).variants()
    ]


# ---------------------------------------------------------------------------
# Figure 2 — effect of taking RIC information into account
# ---------------------------------------------------------------------------
def figure2(
    num_nodes: Optional[int] = None,
    num_queries: Optional[int] = None,
    checkpoints: Optional[Sequence[int]] = None,
    seed: int = 42,
) -> FigureResult:
    """Worst vs Random vs RJoin: traffic, QPL and SL per node (Figure 2).

    The "Request RIC" series (``rjoin_ric_messages_per_node``) counts the RIC
    transmissions actually made: a question that waited for a chain of its
    node already asking the key (``ric_questions_joined`` in the summary)
    cost none, nor one no answer to which could have changed the choice
    (``ric_questions_spared``), a request sent on a cached arc (counted, with
    every other keyed message, in ``arc_sends_direct``) one instead of a
    routing path's worth, and a reply one.  Asking included, RJoin's traffic
    stays below Random's (asserted over three seeds in
    ``tests/experiments/test_figures.py``).

    RJoin's traffic series (``rjoin_messages_per_node``) includes a saving
    Worst, Random and First cannot have: the arcs its RIC replies carry —
    and the notice that answers a message it had to route — are a routing
    cache, and its tuples and queries reach their keys in one hop on them,
    where a strategy that never asks routes every one through the ring.  At
    the smoke size of the tests (24 nodes, 40 queries, 40 tuples) that is
    156 -> 69, 130 -> 50 and 139 -> 55 messages per node on seeds 42-44,
    against Random's 161, 137 and 154: 85 to 95 % of RJoin's margin over
    Random is the cache's, the rest the placement's.
    """
    base = _scenario_base("fig2", seed)
    if num_nodes is not None:
        base = base.with_overrides(num_nodes=num_nodes)
    if num_queries is not None:
        base = base.with_overrides(num_queries=num_queries)
    if checkpoints is not None:
        checkpoints = list(checkpoints)
        base = base.with_overrides(
            checkpoints=checkpoints, num_tuples=max(checkpoints)
        )

    strategies = get_scenario("fig2").strategies
    experiments: Dict[str, ExperimentResult] = {}
    for strategy in strategies:
        config = base.with_overrides(name=f"fig2-{strategy}", strategy=strategy)
        experiments[strategy] = run_experiment(config)

    x_values = list(base.checkpoints)
    series: Dict[str, List[float]] = {}
    for strategy in strategies:
        result = experiments[strategy]
        series[f"{strategy}_messages_per_node"] = [
            result.checkpoint_delta(c, "messages_per_node", since_warmup=True)
            for c in x_values
        ]
        series[f"{strategy}_qpl_per_node"] = [
            result.checkpoint_delta(c, "qpl_per_node", since_warmup=True)
            for c in x_values
        ]
        series[f"{strategy}_storage_per_node"] = [
            result.checkpoint_delta(c, "storage_per_node", since_warmup=True)
            for c in x_values
        ]
    series["rjoin_ric_messages_per_node"] = [
        experiments["rjoin"].checkpoint_delta(
            c, "ric_messages_per_node", since_warmup=True
        )
        for c in x_values
    ]
    return FigureResult(
        figure="Figure 2",
        description="Effect of taking RIC information into account",
        parameters={"num_nodes": base.num_nodes, "num_queries": base.num_queries},
        x_label="# of incoming tuples",
        x_values=x_values,
        series=series,
        experiments=experiments,
    )


# ---------------------------------------------------------------------------
# Figure 3 — effect of increasing the number of incoming tuples
# ---------------------------------------------------------------------------
def figure3(
    num_nodes: Optional[int] = None,
    num_queries: Optional[int] = None,
    tuple_counts: Optional[Sequence[int]] = None,
    seed: int = 42,
) -> FigureResult:
    """RJoin under an increasing tuple rate (Figure 3)."""
    if tuple_counts is None:
        tuple_counts = _scenario_sweep("fig3", "num_tuples")
    base = _scenario_base("fig3", seed)
    if num_nodes is not None:
        base = base.with_overrides(num_nodes=num_nodes)
    if num_queries is not None:
        base = base.with_overrides(num_queries=num_queries)

    experiments: Dict[str, ExperimentResult] = {}
    traffic_per_tuple: List[float] = []
    ric_per_tuple: List[float] = []
    distributions: Dict[str, List[float]] = {}
    participation: List[float] = []
    for count in tuple_counts:
        config = base.with_overrides(name=f"fig3-{count}", num_tuples=int(count))
        result = run_experiment(config)
        experiments[str(count)] = result
        traffic_per_tuple.append(result.messages_per_node_per_tuple)
        ric_per_tuple.append(result.ric_messages_per_node_per_tuple)
        distributions[f"qpl_ranked_{count}"] = [float(v) for v in result.ranked_qpl]
        distributions[f"storage_ranked_{count}"] = [
            float(v) for v in result.ranked_storage
        ]
        participation.append(float(result.participating_nodes))

    return FigureResult(
        figure="Figure 3",
        description="Effect of increasing the number of incoming tuples",
        parameters={"num_nodes": base.num_nodes, "num_queries": base.num_queries},
        x_label="# of incoming tuples",
        x_values=list(tuple_counts),
        series={
            "messages_per_node_per_tuple": traffic_per_tuple,
            "ric_messages_per_node_per_tuple": ric_per_tuple,
            "participating_nodes": participation,
        },
        distributions=distributions,
        experiments=experiments,
    )


# ---------------------------------------------------------------------------
# Figure 4 — effect of increasing the number of indexed queries
# ---------------------------------------------------------------------------
def figure4(
    num_nodes: Optional[int] = None,
    query_counts: Optional[Sequence[int]] = None,
    num_tuples: Optional[int] = None,
    seed: int = 42,
) -> FigureResult:
    """RJoin under an increasing number of indexed queries (Figure 4)."""
    if query_counts is None:
        query_counts = _scenario_sweep("fig4", "num_queries")
    base = _scenario_base("fig4", seed)
    if num_tuples is not None:
        base = base.with_overrides(num_tuples=num_tuples)
    if num_nodes is not None:
        base = base.with_overrides(num_nodes=num_nodes)

    experiments: Dict[str, ExperimentResult] = {}
    traffic_per_tuple: List[float] = []
    ric_per_tuple: List[float] = []
    qpl_per_node: List[float] = []
    storage_per_node: List[float] = []
    distributions: Dict[str, List[float]] = {}
    for count in query_counts:
        config = base.with_overrides(name=f"fig4-{count}", num_queries=int(count))
        result = run_experiment(config)
        experiments[str(count)] = result
        traffic_per_tuple.append(result.messages_per_node_per_tuple)
        ric_per_tuple.append(result.ric_messages_per_node_per_tuple)
        qpl_per_node.append(result.qpl_per_node)
        storage_per_node.append(result.storage_per_node)
        distributions[f"qpl_ranked_{count}"] = [float(v) for v in result.ranked_qpl]
        distributions[f"storage_ranked_{count}"] = [
            float(v) for v in result.ranked_storage
        ]

    return FigureResult(
        figure="Figure 4",
        description="Effect of increasing the number of indexed queries",
        parameters={"num_nodes": base.num_nodes, "num_tuples": base.num_tuples},
        x_label="# of indexed queries",
        x_values=list(query_counts),
        series={
            "messages_per_node_per_tuple": traffic_per_tuple,
            "ric_messages_per_node_per_tuple": ric_per_tuple,
            "qpl_per_node": qpl_per_node,
            "storage_per_node": storage_per_node,
        },
        distributions=distributions,
        experiments=experiments,
    )


# ---------------------------------------------------------------------------
# Figure 5 — varying the skew of the data distribution
# ---------------------------------------------------------------------------
def figure5(
    num_nodes: Optional[int] = None,
    num_queries: Optional[int] = None,
    num_tuples: Optional[int] = None,
    thetas: Optional[Sequence[float]] = None,
    seed: int = 42,
) -> FigureResult:
    """RJoin under increasingly skewed workloads (Figure 5)."""
    if thetas is None:
        thetas = _scenario_sweep("fig5", "zipf_theta")
    base = _scenario_base("fig5", seed)
    if num_nodes is not None:
        base = base.with_overrides(num_nodes=num_nodes)
    if num_queries is not None:
        base = base.with_overrides(num_queries=num_queries)
    if num_tuples is not None:
        base = base.with_overrides(num_tuples=num_tuples)

    experiments: Dict[str, ExperimentResult] = {}
    traffic_per_tuple: List[float] = []
    ric_per_tuple: List[float] = []
    qpl_per_node: List[float] = []
    storage_per_node: List[float] = []
    max_qpl: List[float] = []
    distributions: Dict[str, List[float]] = {}
    for theta in thetas:
        config = base.with_overrides(name=f"fig5-{theta}", zipf_theta=float(theta))
        result = run_experiment(config)
        experiments[str(theta)] = result
        traffic_per_tuple.append(result.messages_per_node_per_tuple)
        ric_per_tuple.append(result.ric_messages_per_node_per_tuple)
        qpl_per_node.append(result.qpl_per_node)
        storage_per_node.append(result.storage_per_node)
        max_qpl.append(float(result.max_qpl))
        distributions[f"qpl_ranked_{theta}"] = [float(v) for v in result.ranked_qpl]
        distributions[f"storage_ranked_{theta}"] = [
            float(v) for v in result.ranked_storage
        ]

    return FigureResult(
        figure="Figure 5",
        description="Effect of skewed data",
        parameters={"num_nodes": base.num_nodes, "num_queries": base.num_queries},
        x_label="theta",
        x_values=list(thetas),
        series={
            "messages_per_node_per_tuple": traffic_per_tuple,
            "ric_messages_per_node_per_tuple": ric_per_tuple,
            "qpl_per_node": qpl_per_node,
            "storage_per_node": storage_per_node,
            "max_node_qpl": max_qpl,
        },
        distributions=distributions,
        experiments=experiments,
    )


# ---------------------------------------------------------------------------
# Figure 6 — effect of query complexity (number of joins)
# ---------------------------------------------------------------------------
def figure6(
    num_nodes: Optional[int] = None,
    num_queries: Optional[int] = None,
    num_tuples: Optional[int] = None,
    arities: Optional[Sequence[int]] = None,
    seed: int = 42,
) -> FigureResult:
    """RJoin with 4-, 6- and 8-way join queries (Figure 6)."""
    if arities is None:
        arities = _scenario_sweep("fig6", "join_arity")
    base = _scenario_base("fig6", seed)
    if num_nodes is not None:
        base = base.with_overrides(num_nodes=num_nodes)
    if num_queries is not None:
        base = base.with_overrides(num_queries=num_queries)
    if num_tuples is not None:
        base = base.with_overrides(num_tuples=num_tuples)

    experiments: Dict[str, ExperimentResult] = {}
    traffic_per_tuple: List[float] = []
    ric_per_tuple: List[float] = []
    qpl_per_node: List[float] = []
    storage_per_node: List[float] = []
    distributions: Dict[str, List[float]] = {}
    for arity in arities:
        config = base.with_overrides(name=f"fig6-{arity}way", join_arity=int(arity))
        result = run_experiment(config)
        experiments[f"{arity}-way"] = result
        traffic_per_tuple.append(result.messages_per_node_per_tuple)
        ric_per_tuple.append(result.ric_messages_per_node_per_tuple)
        qpl_per_node.append(result.qpl_per_node)
        storage_per_node.append(result.storage_per_node)
        distributions[f"qpl_ranked_{arity}way"] = [float(v) for v in result.ranked_qpl]
        distributions[f"storage_ranked_{arity}way"] = [
            float(v) for v in result.ranked_storage
        ]

    return FigureResult(
        figure="Figure 6",
        description="Effect of having more complex queries",
        parameters={"num_nodes": base.num_nodes, "num_queries": base.num_queries},
        x_label="# of relations joined",
        x_values=list(arities),
        series={
            "messages_per_node_per_tuple": traffic_per_tuple,
            "ric_messages_per_node_per_tuple": ric_per_tuple,
            "qpl_per_node": qpl_per_node,
            "storage_per_node": storage_per_node,
        },
        distributions=distributions,
        experiments=experiments,
    )


# ---------------------------------------------------------------------------
# Figures 7 and 8 — sliding window size
# ---------------------------------------------------------------------------
def _figure_window_sizes() -> List[int]:
    """Window sizes of the fig7 scenario's variants (shared with Figure 8)."""
    return [
        int(variant.overrides["tuple_gc_window"].size)
        for variant in get_scenario("fig7").variants()
    ]


def _window_sweep(
    window_sizes: Sequence[int],
    num_nodes: Optional[int],
    num_queries: Optional[int],
    num_tuples: Optional[int],
    capture_per_tuple: bool,
    seed: int,
) -> Dict[str, ExperimentResult]:
    base = _scenario_base("fig7", seed)
    if num_nodes is not None:
        base = base.with_overrides(num_nodes=num_nodes)
    if num_queries is not None:
        base = base.with_overrides(num_queries=num_queries)
    if num_tuples is not None:
        base = base.with_overrides(num_tuples=num_tuples)
    results: Dict[str, ExperimentResult] = {}
    for size in window_sizes:
        window = WindowSpec(size=float(size), mode="tuples")
        config = base.with_overrides(
            name=f"window-{size}",
            tuple_gc_window=window,
            capture_per_tuple=capture_per_tuple,
        )
        results[str(size)] = run_experiment(config)
    return results


def figure7(
    num_nodes: Optional[int] = None,
    num_queries: Optional[int] = None,
    num_tuples: Optional[int] = None,
    window_sizes: Optional[Sequence[int]] = None,
    seed: int = 42,
) -> FigureResult:
    """Effect of the sliding-window size on traffic, QPL and SL (Figure 7)."""
    if window_sizes is None:
        window_sizes = _figure_window_sizes()
    results = _window_sweep(
        window_sizes, num_nodes, num_queries, num_tuples, False, seed
    )
    traffic_per_tuple = [
        results[str(size)].messages_per_node_per_tuple for size in window_sizes
    ]
    ric_per_tuple = [
        results[str(size)].ric_messages_per_node_per_tuple for size in window_sizes
    ]
    qpl_per_node = [results[str(size)].qpl_per_node for size in window_sizes]
    storage_current = [
        float(sum(results[str(size)].ranked_storage_current))
        for size in window_sizes
    ]
    distributions: Dict[str, List[float]] = {}
    for size in window_sizes:
        result = results[str(size)]
        distributions[f"qpl_ranked_W{size}"] = [float(v) for v in result.ranked_qpl]
        distributions[f"storage_ranked_W{size}"] = [
            float(v) for v in result.ranked_storage
        ]
    return FigureResult(
        figure="Figure 7",
        description="Effect of sliding window size (W)",
        parameters={"window_sizes": list(window_sizes)},
        x_label="sliding window size (tuples)",
        x_values=list(window_sizes),
        series={
            "messages_per_node_per_tuple": traffic_per_tuple,
            "ric_messages_per_node_per_tuple": ric_per_tuple,
            "qpl_per_node": qpl_per_node,
            "total_current_storage": storage_current,
        },
        distributions=distributions,
        experiments=results,
    )


def figure8(
    num_nodes: Optional[int] = None,
    num_queries: Optional[int] = None,
    num_tuples: Optional[int] = None,
    window_sizes: Optional[Sequence[int]] = None,
    seed: int = 42,
) -> FigureResult:
    """Cumulative QPL and SL per incoming tuple for each window size (Figure 8)."""
    if window_sizes is None:
        window_sizes = _figure_window_sizes()
    results = _window_sweep(
        window_sizes, num_nodes, num_queries, num_tuples, True, seed
    )
    distributions: Dict[str, List[float]] = {}
    final_qpl: List[float] = []
    final_storage: List[float] = []
    for size in window_sizes:
        result = results[str(size)]
        distributions[f"cumulative_qpl_W{size}"] = [
            float(v) for v in result.cumulative_qpl
        ]
        distributions[f"cumulative_storage_W{size}"] = [
            float(v) for v in result.cumulative_storage
        ]
        final_qpl.append(
            float(result.cumulative_qpl[-1]) if result.cumulative_qpl else 0.0
        )
        final_storage.append(
            float(result.cumulative_storage[-1]) if result.cumulative_storage else 0.0
        )
    return FigureResult(
        figure="Figure 8",
        description="Cumulative load created with each new tuple per window size",
        parameters={"window_sizes": list(window_sizes)},
        x_label="sliding window size (tuples)",
        x_values=list(window_sizes),
        series={
            "final_cumulative_qpl": final_qpl,
            "final_cumulative_storage": final_storage,
        },
        distributions=distributions,
        experiments=results,
    )


# ---------------------------------------------------------------------------
# Figure 9 — using lower-level interfaces (id movement)
# ---------------------------------------------------------------------------
def figure9(
    num_nodes: Optional[int] = None,
    num_queries: Optional[int] = None,
    num_tuples: Optional[int] = None,
    seed: int = 42,
) -> FigureResult:
    """Load distribution with and without id-movement balancing (Figure 9)."""
    base = _scenario_base("fig9", seed)
    if num_nodes is not None:
        base = base.with_overrides(num_nodes=num_nodes)
    if num_queries is not None:
        base = base.with_overrides(num_queries=num_queries)
    if num_tuples is not None:
        base = base.with_overrides(num_tuples=num_tuples)

    without = run_experiment(
        base.with_overrides(name="fig9-without", id_movement=False)
    )
    with_movement = run_experiment(
        base.with_overrides(name="fig9-with", id_movement=True)
    )
    distributions = {
        "qpl_ranked_without": [float(v) for v in without.ranked_qpl],
        "qpl_ranked_with": [float(v) for v in with_movement.ranked_qpl],
        "storage_ranked_without": [float(v) for v in without.ranked_storage_current],
        "storage_ranked_with": [float(v) for v in with_movement.ranked_storage_current],
    }
    series = {
        "max_storage": [
            float(without.max_storage),
            float(with_movement.max_storage),
        ],
        "max_qpl": [float(without.max_qpl), float(with_movement.max_qpl)],
        "participating_nodes": [
            float(participation_count(without.ranked_qpl)),
            float(participation_count(with_movement.ranked_qpl)),
        ],
    }
    return FigureResult(
        figure="Figure 9",
        description="Effect of id movement (without / with)",
        parameters={"num_nodes": base.num_nodes, "num_queries": base.num_queries},
        x_label="configuration",
        x_values=["without", "with"],
        series=series,
        distributions=distributions,
        experiments={"without": without, "with": with_movement},
    )
