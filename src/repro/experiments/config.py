"""Experiment configuration.

The paper's experiments run on 10³ nodes with 2·10⁴ continuous queries and up
to 2 560 incoming tuples.  A pure-Python simulation cannot complete that in
benchmark-friendly time, so every figure uses a *reduced default scale* that
preserves the qualitative shapes (who wins, monotonicity, distribution
patterns) and can be switched to the paper scale by setting the environment
variable ``REPRO_FULL_SCALE=1`` (or by passing explicit overrides to
:func:`repro.experiments.figures.figure`).  One rule,
:meth:`ExperimentConfig.paper_scale`, takes every scenario's default base to
the paper's sizes.  Every result file records the
full configuration, scale included, that produced it
(:mod:`repro.metrics.serialize`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from typing import List, Optional, Tuple

from repro.core.config import RJoinConfig
from repro.errors import ExperimentError

FULL_SCALE_ENV = "REPRO_FULL_SCALE"


def is_full_scale() -> bool:
    """Whether the paper-scale experiment sizes were requested."""
    return os.environ.get(FULL_SCALE_ENV, "").strip() not in ("", "0", "false", "no")


#: Simulated time from the publication that crosses a churn event's index
#: to the event: it fires while the *next* publication's messages are in
#: flight, which is what makes crashes actually destroy in-flight traffic.
CHURN_OP_DELAY = 0.5


@dataclass(frozen=True)
class ChurnSpec:
    """Membership-churn schedule of one experiment.

    Rates are expressed per published (measured) tuple: ``join_every=20``
    triggers one node join after tuples 20, 40, 60, … of the tuple phase,
    ``leave_every`` a graceful leave (the node hands its state off) and
    ``crash_every`` a crash.  The runner translates the schedule into
    kernel-scheduled membership events that fire :data:`CHURN_OP_DELAY`
    simulated time units after the triggering publication.  A departure
    that would shrink the ring below ``min_nodes`` turns into a no-op.
    """

    join_every: int = 0
    leave_every: int = 0
    crash_every: int = 0
    min_nodes: int = 2

    def __post_init__(self) -> None:
        for name in ("join_every", "leave_every", "crash_every"):
            if getattr(self, name) < 0:
                raise ExperimentError(f"{name} must be non-negative")
        if self.min_nodes < 1:
            raise ExperimentError("min_nodes must be at least one")

    @property
    def enabled(self) -> bool:
        """Whether this schedule produces any events at all."""
        return bool(self.join_every or self.leave_every or self.crash_every)

    def events_for(self, num_tuples: int) -> List[Tuple[int, str]]:
        """The deterministic ``(tuple index, op kind)`` schedule of a run.

        Event kinds due at the same index fire in ``join``, ``leave``,
        ``crash`` order so the schedule is reproducible.
        """
        events: List[Tuple[int, str]] = []
        for kind, every in (
            ("join", self.join_every),
            ("leave", self.leave_every),
            ("crash", self.crash_every),
        ):
            if every:
                events.extend(
                    (index, kind) for index in range(every, num_tuples + 1, every)
                )
        order = {"join": 0, "leave": 1, "crash": 2}
        events.sort(key=lambda event: (event[0], order[event[1]]))
        return events


@dataclass(frozen=True)
class QueryChurnSpec:
    """Query-lifecycle churn schedule of one experiment.

    Rates are expressed per published (measured) tuple, mirroring
    :class:`ChurnSpec`: ``remove_every=10`` retracts the oldest active
    continuous query after tuples 10, 20, 30, … of the tuple phase.
    ``resubmit=True`` immediately re-submits an equivalent fresh query
    (same SQL, new handle and insertion time) so the active population
    stays constant — the "mixed query churn" workload; ``resubmit=False``
    drains the population instead.
    """

    remove_every: int = 0
    resubmit: bool = True

    def __post_init__(self) -> None:
        if self.remove_every < 0:
            raise ExperimentError("remove_every must be non-negative")

    @property
    def enabled(self) -> bool:
        """Whether this schedule removes any query at all."""
        return bool(self.remove_every)

    def events_for(self, num_tuples: int) -> List[int]:
        """The deterministic tuple indices after which one removal fires."""
        if not self.remove_every:
            return []
        return list(range(self.remove_every, num_tuples + 1, self.remove_every))


@dataclass
class ExperimentConfig(RJoinConfig):
    """One experiment run: the engine's configuration plus its workload.

    Every :class:`~repro.core.config.RJoinConfig` field is an experiment
    field too, validated by the engine's own check, and
    :func:`~repro.experiments.runner.build_engine` hands the whole object to
    the engine.  ``tuple_gc_window`` is also the window of every generated
    query.
    """

    # Engine defaults an experiment changes: a larger ring, a fixed seed,
    # and the full candidate space of Section 6 (families (a), (b) and (c)),
    # which is what separates the Worst and Random baselines from RJoin in
    # Figure 2.
    num_nodes: int = 100
    seed: int = 42
    allow_attribute_level_rewrites: bool = True

    name: str = "experiment"
    #: Membership churn schedule (None: the ring is static for the whole run).
    churn: Optional[ChurnSpec] = None
    #: Query-lifecycle churn schedule (None: queries are only ever added) —
    #: composes freely with node churn into the full elasticity story.
    query_churn: Optional[QueryChurnSpec] = None
    # Workload ---------------------------------------------------------------
    num_queries: int = 500
    num_tuples: int = 100
    num_relations: int = 10
    attributes_per_relation: int = 10
    value_domain: int = 100
    zipf_theta: float = 0.9
    join_arity: int = 4
    distinct: bool = False
    # Arrival pattern ---------------------------------------------------------
    #: Tuples are published in bursts of ``batch_size`` through
    #: ``RJoinEngine.publish_batch`` (one drain per burst): 1 is the paper's
    #: steady one-at-a-time arrivals, larger sizes model high-rate batches.
    batch_size: int = 1
    # Adversarial value skew ---------------------------------------------------
    #: Fraction of tuples whose values are forced onto the hottest keys (see
    #: :class:`repro.workload.generator.WorkloadSpec`).
    hot_key_fraction: float = 0.0
    hot_value_count: int = 1
    # Warm-up -------------------------------------------------------------------
    #: Tuples published *before* the queries are submitted.  They train the
    #: rate-of-incoming-tuple observations (RIC for RJoin, the oracle for the
    #: Worst baseline) so that indexing decisions are informed, mirroring the
    #: paper's assumption that nodes "observe what has happened during the
    #: last time window".  Warm-up load is excluded from the reported metrics.
    warmup_tuples: int = 0
    # Instrumentation ----------------------------------------------------------
    checkpoints: List[int] = field(default_factory=list)
    capture_per_tuple: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_queries < 0 or self.num_tuples < 0:
            raise ExperimentError("workload sizes must be non-negative")
        if self.warmup_tuples < 0:
            raise ExperimentError("warmup_tuples must be non-negative")
        if self.join_arity < 2:
            raise ExperimentError("experiments need at least two-way joins")
        if self.batch_size < 1:
            raise ExperimentError("batch_size must be at least one tuple")
        if not 0.0 <= self.hot_key_fraction <= 1.0:
            raise ExperimentError("hot_key_fraction must lie in [0, 1]")
        if self.churn is not None and not isinstance(self.churn, ChurnSpec):
            raise ExperimentError("churn must be a ChurnSpec (or None)")
        if self.query_churn is not None and not isinstance(
            self.query_churn, QueryChurnSpec
        ):
            raise ExperimentError(
                "query_churn must be a QueryChurnSpec (or None)"
            )
        for checkpoint in self.checkpoints:
            if checkpoint <= 0 or checkpoint > self.num_tuples:
                raise ExperimentError(
                    f"checkpoint {checkpoint} outside (0, {self.num_tuples}]"
                )

    def with_overrides(self, **overrides) -> "ExperimentConfig":
        """A copy of the configuration with the given fields replaced."""
        known = [config_field.name for config_field in fields(self)]
        unknown = sorted(set(overrides) - set(known))
        if unknown:
            raise ExperimentError(
                f"unknown config field {', '.join(map(repr, unknown))}; "
                f"known fields: {', '.join(known)}"
            )
        return replace(self, **overrides)

    def paper_scale(self) -> "ExperimentConfig":
        """This configuration at the paper's sizes: 10³ nodes, 2·10⁴ queries
        and 10³ tuples, after 200 warm-up tuples if this one warms up."""
        return self.with_overrides(
            num_nodes=1000,
            num_queries=20000,
            num_tuples=1000,
            warmup_tuples=200 if self.warmup_tuples else 0,
        )
