"""Declarative scenario registry for the experiment grid.

A :class:`Scenario` names a family of experiments: a base
:class:`~repro.experiments.config.ExperimentConfig`, the axis being swept,
the variants along that axis (each a bundle of config overrides), and the
strategies/seeds the grid expands over.  Scenarios are *declarative*: they
describe configurations without running anything, so the same definition
feeds the figure harness (``repro.experiments.figures``), the parallel grid
runner (``repro.experiments.parallel``) and the CLI
(``python -m repro.experiments``).

Two groups of scenarios ship by default:

* the exploratory grid — ``baseline``, ``skew-sweep``, ``bursty``,
  ``query-flood``, ``hot-key``, ``node-churn``, ``query-churn``,
  ``owner-failover``, ``latency`` and ``store-backends`` — stressing the
  system along axes the paper's Section 8 only touches implicitly, each
  with a claim ``tests/experiments/test_scenario_claims.py`` checks, and
* one scenario per paper figure (``fig2`` … ``fig9``), which
  :func:`repro.experiments.figures.figure` runs and reads its series from.

Every scenario expands into :class:`ScenarioCell`\\ s — one fully resolved
``ExperimentConfig`` per (variant, strategy, seed) — via
:meth:`Scenario.cells`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.data.backends import BACKEND_NAMES
from repro.errors import ExperimentError
from repro.experiments.config import (
    ChurnSpec,
    ExperimentConfig,
    QueryChurnSpec,
    is_full_scale,
)
from repro.sql.ast import WindowSpec


@dataclass(frozen=True)
class Variant:
    """One point along a scenario's sweep axis."""

    label: str
    overrides: Mapping[str, object] = field(default_factory=dict)

    def apply(self, base: ExperimentConfig) -> ExperimentConfig:
        """The base configuration with this variant's overrides applied."""
        return base.with_overrides(**dict(self.overrides))


@dataclass(frozen=True)
class ScenarioCell:
    """One fully resolved grid cell: scenario × variant × strategy × seed."""

    scenario: str
    variant: str
    strategy: str
    seed: int
    config: ExperimentConfig

    @property
    def cell_id(self) -> str:
        """Stable, filesystem-safe identifier used for checkpoint files."""
        variant = str(self.variant).replace("/", "-").replace(" ", "_")
        return f"{self.scenario}__{variant}__{self.strategy}__seed{self.seed}"


@dataclass(frozen=True)
class Scenario:
    """A named, parameterized family of experiment configurations."""

    name: str
    description: str
    axis: str
    default_base: ExperimentConfig
    default_variants: Tuple[Variant, ...]
    paper_variants: Optional[Tuple[Variant, ...]] = None
    strategies: Tuple[str, ...] = ("rjoin",)
    seeds: Tuple[int, ...] = (41, 42, 43)

    def base(self, full_scale: Optional[bool] = None) -> ExperimentConfig:
        """The scenario's base configuration at the requested scale.

        At paper scale it is ``default_base.paper_scale()``: one rule sets
        the paper's sizes; what a scenario needs beyond them is in its
        ``paper_variants``.
        """
        if full_scale is None:
            full_scale = is_full_scale()
        return self.default_base.paper_scale() if full_scale else self.default_base

    def variants(self, full_scale: Optional[bool] = None) -> Tuple[Variant, ...]:
        """The swept variants at the requested scale."""
        if full_scale is None:
            full_scale = is_full_scale()
        if full_scale and self.paper_variants is not None:
            return self.paper_variants
        return self.default_variants

    def variant_named(self, label: str) -> Variant:
        """Look up one variant by label (either scale)."""
        for variant in tuple(self.default_variants) + tuple(self.paper_variants or ()):
            if variant.label == label:
                return variant
        raise ExperimentError(
            f"scenario {self.name!r} has no variant {label!r}; "
            f"known: {[v.label for v in self.default_variants]}"
        )

    def config_for(
        self,
        variant: Variant,
        strategy: Optional[str] = None,
        seed: Optional[int] = None,
        overrides: Optional[Mapping[str, object]] = None,
        full_scale: Optional[bool] = None,
    ) -> ExperimentConfig:
        """Resolve one grid cell's configuration."""
        config = self.base(full_scale)
        if overrides:
            config = config.with_overrides(**dict(overrides))
        config = variant.apply(config)
        fields: Dict[str, object] = {
            "name": f"{self.name}-{variant.label}",
        }
        if strategy is not None:
            fields["strategy"] = strategy
        if seed is not None:
            fields["seed"] = seed
        return config.with_overrides(**fields)

    def cells(
        self,
        seeds: Optional[Sequence[int]] = None,
        strategies: Optional[Sequence[str]] = None,
        overrides: Optional[Mapping[str, object]] = None,
        full_scale: Optional[bool] = None,
    ) -> List[ScenarioCell]:
        """Expand the scenario into its full variant × strategy × seed grid."""
        seeds = tuple(seeds) if seeds is not None else self.seeds
        strategies = (
            tuple(strategies) if strategies is not None else self.strategies
        )
        cells: List[ScenarioCell] = []
        for variant in self.variants(full_scale):
            for strategy in strategies:
                for seed in seeds:
                    cells.append(
                        ScenarioCell(
                            scenario=self.name,
                            variant=variant.label,
                            strategy=strategy,
                            seed=int(seed),
                            config=self.config_for(
                                variant,
                                strategy=strategy,
                                seed=int(seed),
                                overrides=overrides,
                                full_scale=full_scale,
                            ),
                        )
                    )
        return cells


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
SCENARIOS: Dict[str, Scenario] = {}


def register(scenario: Scenario) -> Scenario:
    """Add ``scenario`` to the registry (last registration wins)."""
    SCENARIOS[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario by name."""
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ExperimentError(
            f"unknown scenario {name!r}; known scenarios: {known}"
        ) from None


def scenario_names() -> List[str]:
    """Sorted names of every registered scenario."""
    return sorted(SCENARIOS)


def sweep(
    parameter: str,
    values: Sequence[object],
    label: Optional[str] = None,
    extra: Optional[Mapping[str, object]] = None,
) -> Tuple[Variant, ...]:
    """Variants sweeping one config field over ``values``."""
    variants = []
    for value in values:
        overrides = {parameter: value}
        if extra:
            overrides.update(extra)
        variants.append(
            Variant(label=f"{label or parameter}={value}", overrides=overrides)
        )
    return tuple(variants)


def window_sweep(sizes: Sequence[int]) -> Tuple[Variant, ...]:
    """Variants sweeping the tuple-count sliding window over ``sizes``."""
    return tuple(
        Variant(
            label=f"W={size}",
            overrides={
                "tuple_gc_window": WindowSpec(size=float(size), mode="tuples")
            },
        )
        for size in sizes
    )


# ---------------------------------------------------------------------------
# exploratory grid scenarios (the ROADMAP's "as many scenarios as you can
# imagine" backlog starts here)
# ---------------------------------------------------------------------------
register(
    Scenario(
        name="baseline",
        description=(
            "All four indexing strategies on the default Section 8 workload; "
            "the sanity anchor every other scenario is compared against."
        ),
        axis="strategy",
        default_base=ExperimentConfig(
            num_nodes=60,
            num_queries=150,
            num_tuples=80,
            warmup_tuples=20,
        ),
        default_variants=(Variant(label="default"),),
        strategies=("worst", "random", "rjoin", "first"),
    )
)

register(
    Scenario(
        name="skew-sweep",
        description=(
            "Zipf theta swept from uniform (0.0) past the paper's default "
            "(0.9) into extreme skew (1.2)."
        ),
        axis="zipf_theta",
        default_base=ExperimentConfig(
            num_nodes=60,
            num_queries=120,
            num_tuples=80,
            warmup_tuples=20,
        ),
        default_variants=sweep("zipf_theta", (0.0, 0.3, 0.6, 0.9, 1.2), label="theta"),
    )
)

register(
    Scenario(
        name="bursty",
        description=(
            "High-rate batched arrivals through publish_batch: bursts of "
            "increasing size with a single network drain per burst."
        ),
        axis="batch_size",
        default_base=ExperimentConfig(
            num_nodes=60,
            num_queries=120,
            num_tuples=120,
            warmup_tuples=20,
        ),
        default_variants=sweep("batch_size", (5, 20, 50)),
    )
)

register(
    Scenario(
        name="query-flood",
        description=(
            "Queries vastly outnumber tuples: indexing cost dominates and "
            "per-tuple fan-out grows with the indexed population."
        ),
        axis="num_queries",
        default_base=ExperimentConfig(
            num_nodes=60,
            num_queries=200,
            num_tuples=20,
            warmup_tuples=10,
        ),
        default_variants=sweep("num_queries", (200, 400, 800)),
        # Million-query matching: the full-scale sweep pushes the resident
        # population to 10⁵–10⁶ queries — feasible only because the
        # predicate-aware query index keeps per-arrival matching sublinear
        # and shared rewritten-query state collapses duplicates.
        paper_variants=sweep("num_queries", (100_000, 300_000, 1_000_000)),
    )
)

register(
    Scenario(
        name="hot-key",
        description=(
            "Adversarial value skew: a growing fraction of tuples carries "
            "only the hottest values, hammering the nodes that own them."
        ),
        axis="hot_key_fraction",
        default_base=ExperimentConfig(
            num_nodes=60,
            num_queries=120,
            num_tuples=80,
            warmup_tuples=20,
            hot_value_count=2,
        ),
        default_variants=sweep("hot_key_fraction", (0.0, 0.25, 0.5, 0.9), label="hot"),
    )
)


def _membership_variants(
    join: int, leave: int, crash: int, mixed: Tuple[int, int, int]
) -> Tuple[Variant, ...]:
    """A static ring, each membership change alone, then all three mixed."""
    schedules = {
        "stable": None,
        "join": ChurnSpec(join_every=join),
        "leave": ChurnSpec(leave_every=leave),
        "crash": ChurnSpec(crash_every=crash),
        "mixed": ChurnSpec(*mixed),
    }
    return tuple(
        Variant(label=label, overrides={"churn": churn})
        for label, churn in schedules.items()
    )


register(
    Scenario(
        name="node-churn",
        description=(
            "Live ring membership: nodes join, leave gracefully and crash "
            "mid-stream; measures re-homing cost, lost state and answer "
            "completeness under topology change."
        ),
        axis="churn",
        default_base=ExperimentConfig(
            num_nodes=40,
            num_queries=100,
            num_tuples=100,
            warmup_tuples=20,
        ),
        default_variants=_membership_variants(20, 20, 25, mixed=(20, 30, 50)),
        paper_variants=_membership_variants(50, 50, 100, mixed=(50, 75, 150)),
    )
)

register(
    Scenario(
        name="query-churn",
        description=(
            "Continuous queries come and go mid-stream: retraction through "
            "the ring (zero-orphan purge + vacuum), optionally followed by "
            "re-submission; composes with node churn into the full "
            "elasticity story."
        ),
        axis="query_churn",
        default_base=ExperimentConfig(
            num_nodes=40,
            num_queries=60,
            num_tuples=100,
            warmup_tuples=20,
        ),
        default_variants=(
            Variant(label="stable", overrides={"query_churn": None}),
            Variant(
                label="remove",
                overrides={
                    "query_churn": QueryChurnSpec(
                        remove_every=10, resubmit=False
                    )
                },
            ),
            Variant(
                label="churn",
                overrides={"query_churn": QueryChurnSpec(remove_every=10)},
            ),
            Variant(
                label="churn+nodes",
                overrides={
                    "query_churn": QueryChurnSpec(remove_every=10),
                    "churn": ChurnSpec(join_every=25, leave_every=40),
                },
            ),
        ),
        paper_variants=(
            Variant(label="stable", overrides={"query_churn": None}),
            Variant(
                label="remove",
                overrides={
                    "query_churn": QueryChurnSpec(
                        remove_every=50, resubmit=False
                    )
                },
            ),
            Variant(
                label="churn",
                overrides={"query_churn": QueryChurnSpec(remove_every=50)},
            ),
            Variant(
                label="churn+nodes",
                overrides={
                    "query_churn": QueryChurnSpec(remove_every=50),
                    "churn": ChurnSpec(join_every=100, leave_every=150),
                },
            ),
            # Million-query churn (PR 8): retraction and re-submission
            # against a 10⁵/10⁶-strong resident population — the removal
            # walk and the re-submitted queries' indexing both ride the
            # predicate-aware query index, so the churn cost must stay flat
            # relative to the 2·10⁴ baseline above.
            Variant(
                label="churn-q100000",
                overrides={
                    "num_queries": 100_000,
                    "query_churn": QueryChurnSpec(remove_every=50),
                },
            ),
            Variant(
                label="churn-q1000000",
                overrides={
                    "num_queries": 1_000_000,
                    "query_churn": QueryChurnSpec(remove_every=50),
                },
            ),
        ),
    )
)


def _failover_variants(churn: ChurnSpec) -> Tuple[Variant, ...]:
    """With and without owner failover, under one crash schedule."""
    return tuple(
        Variant(label=label, overrides={"owner_failover": on, "churn": churn})
        for label, on in (("failover", True), ("no-failover", False))
    )


register(
    Scenario(
        name="owner-failover",
        description=(
            "Nodes crash mid-stream while owning live query handles: with "
            "handle replication the successor re-registers them and answers "
            "re-route; without it every crashed owner's future answers are "
            "dropped.  Compare answers / failover_reregistrations / "
            "answers_rerouted across the two variants."
        ),
        axis="owner_failover",
        default_base=ExperimentConfig(
            num_nodes=40,
            num_queries=80,
            num_tuples=100,
            warmup_tuples=20,
        ),
        default_variants=_failover_variants(ChurnSpec(crash_every=25, min_nodes=8)),
        paper_variants=_failover_variants(ChurnSpec(crash_every=100, min_nodes=100)),
    )
)


def _backend_variants(window_size: int) -> Tuple[Variant, ...]:
    """One variant per registered tuple-store backend, under one GC window."""
    window = WindowSpec(size=float(window_size), mode="tuples")
    return tuple(
        Variant(
            label=backend,
            overrides={"store_backend": backend, "tuple_gc_window": window},
        )
        for backend in BACKEND_NAMES
    )


register(
    Scenario(
        name="store-backends",
        description=(
            "Sliding-window GC pressure replayed across the pluggable "
            "tuple-store backends (memory / sqlite): same "
            "workload, same sliding window, different storage engines — "
            "answers must be identical, storage and wall-clock differ."
        ),
        axis="store_backend",
        default_base=ExperimentConfig(
            num_nodes=60,
            num_queries=100,
            num_tuples=120,
            warmup_tuples=20,
        ),
        default_variants=_backend_variants(window_size=25),
        paper_variants=_backend_variants(window_size=100),
    )
)

register(
    Scenario(
        name="latency",
        description=(
            "Network asynchrony swept independently of load: hop delay and "
            "per-message jitter separate algorithmic cost from delivery "
            "interleaving (ALTT/Δ pressure)."
        ),
        axis="hop_delay/delay_jitter",
        default_base=ExperimentConfig(
            num_nodes=60,
            num_queries=120,
            num_tuples=80,
            warmup_tuples=20,
        ),
        default_variants=(
            Variant(label="hop=0.1", overrides={"hop_delay": 0.1}),
            Variant(label="hop=1", overrides={"hop_delay": 1.0}),
            Variant(label="hop=5", overrides={"hop_delay": 5.0}),
            Variant(
                label="hop=1+jitter=2",
                overrides={"hop_delay": 1.0, "delay_jitter": 2.0},
            ),
            Variant(
                label="hop=1+jitter=10",
                overrides={"hop_delay": 1.0, "delay_jitter": 10.0},
            ),
        ),
    )
)


# ---------------------------------------------------------------------------
# one scenario per paper figure — repro.experiments.figures runs these
# ---------------------------------------------------------------------------
register(
    Scenario(
        name="fig2",
        description="Effect of taking RIC information into account (Figure 2).",
        axis="strategy",
        default_base=ExperimentConfig(
            num_nodes=50,
            num_queries=100,
            num_tuples=200,
            checkpoints=[50, 100, 200],
            warmup_tuples=60,
        ),
        default_variants=(Variant(label="default"),),
        # The paper's Figure 2 reads 400 tuples at four checkpoints.
        paper_variants=(
            Variant(
                label="default",
                overrides={"num_tuples": 400, "checkpoints": [50, 100, 200, 400]},
            ),
        ),
        strategies=("worst", "random", "rjoin"),
        seeds=(42,),
    )
)

register(
    Scenario(
        name="fig3",
        description="Effect of increasing the number of incoming tuples (Figure 3).",
        axis="num_tuples",
        default_base=ExperimentConfig(
            num_nodes=100,
            num_queries=400,
            num_tuples=1,
            warmup_tuples=40,
        ),
        default_variants=sweep("num_tuples", (20, 40, 80, 160)),
        paper_variants=sweep("num_tuples", (40, 80, 160, 320, 640, 1280, 2560)),
        seeds=(42,),
    )
)

register(
    Scenario(
        name="fig4",
        description="Effect of increasing the number of indexed queries (Figure 4).",
        axis="num_queries",
        default_base=ExperimentConfig(
            num_nodes=100,
            num_queries=1,
            num_tuples=60,
            warmup_tuples=40,
        ),
        default_variants=sweep("num_queries", (100, 200, 400, 800)),
        paper_variants=sweep("num_queries", (2000, 4000, 8000, 16000, 32000)),
        seeds=(42,),
    )
)

register(
    Scenario(
        name="fig5",
        description="Effect of skewed data (Figure 5).",
        axis="zipf_theta",
        default_base=ExperimentConfig(
            num_nodes=100,
            num_queries=300,
            num_tuples=100,
            warmup_tuples=0,
        ),
        default_variants=sweep("zipf_theta", (0.3, 0.5, 0.7, 0.9), label="theta"),
        seeds=(42,),
    )
)

register(
    Scenario(
        name="fig6",
        description="Effect of having more complex queries (Figure 6).",
        axis="join_arity",
        default_base=ExperimentConfig(
            num_nodes=100,
            num_queries=200,
            num_tuples=80,
            warmup_tuples=40,
        ),
        default_variants=sweep("join_arity", (4, 6, 8)),
        seeds=(42,),
    )
)

register(
    Scenario(
        name="fig7",
        description="Effect of the sliding window size (Figures 7 and 8).",
        axis="window",
        default_base=ExperimentConfig(
            num_nodes=100,
            num_queries=250,
            num_tuples=200,
            warmup_tuples=40,
        ),
        default_variants=window_sweep((25, 50, 100, 200)),
        paper_variants=window_sweep((50, 100, 200, 400, 1000)),
        seeds=(42,),
    )
)

register(
    Scenario(
        name="fig9",
        description="Effect of id movement (Figure 9).",
        axis="id_movement",
        default_base=ExperimentConfig(
            num_nodes=100,
            num_queries=300,
            num_tuples=150,
            warmup_tuples=40,
        ),
        default_variants=(
            Variant(label="without", overrides={"id_movement": False}),
            Variant(label="with", overrides={"id_movement": True}),
        ),
        seeds=(42,),
    )
)
