"""End-to-end experiment runner.

An experiment follows the structure used throughout Section 8:

1. build a Chord network of ``num_nodes`` nodes,
2. submit ``num_queries`` random k-way join queries (they get indexed and
   wait for tuples),
3. publish ``num_tuples`` tuples drawn from the Zipf workload, draining the
   network after every publication,
4. collect the three metrics (network traffic split into total and
   RIC-related, query processing load, storage load), overall, per node
   (ranked distributions), per checkpoint and — when requested — cumulatively
   per published tuple (Figure 8).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.engine import RJoinEngine
from repro.experiments.config import ExperimentConfig
from repro.workload.generator import WorkloadGenerator, WorkloadSpec


@dataclass
class ExperimentResult:
    """Everything measured during one experiment run."""

    config: ExperimentConfig
    summary: Dict[str, float]
    #: Metric totals right before the first measured tuple was published
    #: (i.e. after the warm-up tuples and the query-indexing phase).  The
    #: figures report the difference between the final/checkpoint values and
    #: this baseline so that warm-up load is excluded.
    baseline: Dict[str, float] = field(default_factory=dict)
    #: Metric totals right after the warm-up phase (before query indexing);
    #: used when a figure should include the query-indexing cost (Figure 2
    #: reports total traffic including the RIC requests of input queries) but
    #: still exclude the warm-up tuples.
    warmup_baseline: Dict[str, float] = field(default_factory=dict)
    # Traffic -----------------------------------------------------------------
    messages_total: int = 0
    ric_messages_total: int = 0
    messages_tuple_phase: int = 0
    ric_messages_tuple_phase: int = 0
    # Ranked per-node distributions ------------------------------------------
    ranked_qpl: List[int] = field(default_factory=list)
    ranked_storage: List[int] = field(default_factory=list)
    ranked_storage_current: List[int] = field(default_factory=list)
    ranked_traffic: List[int] = field(default_factory=list)
    # Checkpoints / per-tuple series -------------------------------------------
    checkpoints: Dict[int, Dict[str, float]] = field(default_factory=dict)
    cumulative_qpl: List[int] = field(default_factory=list)
    cumulative_storage: List[int] = field(default_factory=list)
    answers: int = 0

    # ------------------------------------------------------------------
    # derived quantities used by the figures
    # ------------------------------------------------------------------
    @property
    def messages_per_node(self) -> float:
        """Total messages per node (Figure 2a)."""
        return self.messages_total / self.config.num_nodes

    @property
    def ric_messages_per_node(self) -> float:
        """RIC-related messages per node (the "Request RIC" series): the
        questions actually sent, not those that rode on a chain in flight."""
        return self.ric_messages_total / self.config.num_nodes

    @property
    def messages_per_node_per_tuple(self) -> float:
        """Tuple-phase messages per node per published tuple (Figures 3a–7a)."""
        tuples = max(self.config.num_tuples, 1)
        return self.messages_tuple_phase / self.config.num_nodes / tuples

    @property
    def ric_messages_per_node_per_tuple(self) -> float:
        """Tuple-phase RIC messages per node per published tuple."""
        tuples = max(self.config.num_tuples, 1)
        return self.ric_messages_tuple_phase / self.config.num_nodes / tuples

    def delta(
        self,
        metric: str,
        at: Optional[Dict[str, float]] = None,
        since_warmup: bool = False,
    ) -> float:
        """``metric`` at a snapshot (default: the final summary) minus a baseline.

        ``since_warmup=True`` subtracts the post-warm-up baseline (so the
        query-indexing phase is included); the default subtracts the
        post-query-indexing baseline (tuple phase only).
        """
        snapshot = self.summary if at is None else at
        reference = self.warmup_baseline if since_warmup else self.baseline
        return snapshot.get(metric, 0.0) - reference.get(metric, 0.0)

    def checkpoint_delta(
        self, checkpoint: int, metric: str, since_warmup: bool = False
    ) -> float:
        """Baseline-adjusted value of ``metric`` at a tuple-count checkpoint."""
        return self.delta(
            metric, at=self.checkpoints[checkpoint], since_warmup=since_warmup
        )

    @property
    def qpl_per_node(self) -> float:
        """Average query processing load per node incurred by the measured tuples."""
        return self.delta("qpl_per_node")

    @property
    def storage_per_node(self) -> float:
        """Average (cumulative) storage load per node incurred by the measured tuples."""
        return self.delta("storage_per_node")

    @property
    def participating_nodes(self) -> int:
        """Nodes that incurred any query-processing load."""
        return int(self.summary.get("participating_nodes", 0))

    @property
    def max_qpl(self) -> int:
        """Load of the most loaded node (QPL)."""
        return self.ranked_qpl[0] if self.ranked_qpl else 0

    @property
    def max_storage(self) -> int:
        """Load of the most loaded node (current storage)."""
        return self.ranked_storage_current[0] if self.ranked_storage_current else 0


def build_engine(config: ExperimentConfig) -> RJoinEngine:
    """Create an engine configured for ``config`` (without any workload)."""
    return RJoinEngine(config)


def build_workload(config: ExperimentConfig) -> WorkloadGenerator:
    """Create the workload generator matching ``config``."""
    spec = WorkloadSpec(
        num_relations=config.num_relations,
        attributes_per_relation=config.attributes_per_relation,
        value_domain=config.value_domain,
        zipf_theta=config.zipf_theta,
        join_arity=config.join_arity,
        window=config.tuple_gc_window,
        distinct=config.distinct,
        burst_size=config.batch_size,
        hot_key_fraction=config.hot_key_fraction,
        hot_value_count=config.hot_value_count,
        seed=config.seed,
    )
    return WorkloadGenerator(spec)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one experiment and return every measured series."""
    engine = build_engine(config)
    generator = build_workload(config)
    engine.register_catalog(generator.catalog)

    # Phase 0: warm-up tuples train the rate observations (RIC / oracle) so
    # that query-indexing decisions are informed; their load is excluded from
    # every reported metric through the baseline snapshot below.
    for generated in generator.generate_tuples(config.warmup_tuples):
        engine.publish(generated.relation, generated.values)
    warmup_baseline = engine.metrics_summary()

    # Phase 1: submit and index the continuous queries.  Handles are kept in
    # submission order so the query-churn schedule can pick deterministic
    # victims (oldest / newest) later.
    active_handles = []
    for query in generator.generate_queries(config.num_queries):
        active_handles.append(engine.submit(query, process=False))
    engine.run()
    baseline = engine.metrics_summary()
    messages_after_queries, ric_after_queries = engine.traffic.snapshot()

    # Phase 2: publish tuples, tracking checkpoints and per-tuple load.  In
    # batch mode the stream is grouped into bursts handed to publish_batch
    # (one network drain per burst); snapshots are then taken at burst
    # granularity, so per-tuple series repeat the post-burst value for every
    # tuple of the burst and checkpoints snap to the end of the burst that
    # crosses them.
    checkpoints: Dict[int, Dict[str, float]] = {}
    cumulative_qpl: List[int] = []
    cumulative_storage: List[int] = []
    checkpoint_set = set(config.checkpoints)

    # Membership churn: the ChurnSpec's tuple-indexed schedule becomes
    # kernel-scheduled events.  Each event is scheduled right after the
    # publication that crossed its index, with a small simulated delay so
    # that it fires *while the next publication's messages are in flight* —
    # joins and graceful leaves then defer to the next quiescent point,
    # crashes take effect immediately and destroy in-flight traffic.
    churn_schedule = (
        config.churn.events_for(config.num_tuples)
        if config.churn is not None and config.churn.enabled
        else []
    )
    churn_cursor = 0

    # Query churn: the QueryChurnSpec's tuple-indexed schedule removes (and
    # optionally re-submits) continuous queries between publications.  Unlike
    # membership churn, removal is a synchronous engine operation — it drains
    # the network, broadcasts the retraction and verifies the purge — so it
    # runs inline rather than on the kernel.
    query_churn_schedule = (
        config.query_churn.events_for(config.num_tuples)
        if config.query_churn is not None and config.query_churn.enabled
        else []
    )
    query_churn_cursor = 0
    victim_rng = random.Random(config.seed + 7919)

    def _dispatch_query_churn(index: int) -> None:
        nonlocal query_churn_cursor
        spec = config.query_churn
        while (
            query_churn_cursor < len(query_churn_schedule)
            and query_churn_schedule[query_churn_cursor] <= index
        ):
            query_churn_cursor += 1
            if len(active_handles) <= spec.min_queries or not active_handles:
                continue
            if spec.target == "oldest":
                victim = active_handles.pop(0)
            elif spec.target == "newest":
                victim = active_handles.pop()
            else:
                victim = active_handles.pop(
                    victim_rng.randrange(len(active_handles))
                )
            engine.remove_query(victim.query_id)
            if spec.resubmit:
                active_handles.append(engine.submit(victim.query))

    def _dispatch_churn(index: int) -> None:
        nonlocal churn_cursor
        spec = config.churn
        while (
            churn_cursor < len(churn_schedule)
            and churn_schedule[churn_cursor][0] <= index
        ):
            _, kind = churn_schedule[churn_cursor]
            churn_cursor += 1
            engine.schedule_membership_op(
                kind,
                delay=spec.op_delay,
                graceful=spec.graceful,
                min_nodes=spec.min_nodes,
                max_nodes=spec.max_nodes,
            )

    def _capture(index: int, previous_index: int) -> None:
        if config.capture_per_tuple:
            qpl_total, storage_total = engine.loads.snapshot()
            for _ in range(index - previous_index):
                cumulative_qpl.append(qpl_total - int(baseline.get("total_qpl", 0)))
                cumulative_storage.append(
                    storage_total - int(baseline.get("total_storage", 0))
                )
        crossed = [c for c in checkpoint_set if previous_index < c <= index]
        if crossed:
            summary_now = engine.metrics_summary()
            for checkpoint in crossed:
                checkpoints[checkpoint] = summary_now

    if config.publish_mode == "batch":
        index = 0
        for batch in generator.tuple_batches(
            config.num_tuples, config.batch_size
        ):
            engine.publish_batch(
                [(generated.relation, generated.values) for generated in batch]
            )
            previous_index, index = index, index + len(batch)
            _dispatch_churn(index)
            _dispatch_query_churn(index)
            _capture(index, previous_index)
    else:
        for index, generated in enumerate(
            generator.tuple_stream(config.num_tuples), start=1
        ):
            engine.publish(generated.relation, generated.values)
            _dispatch_churn(index)
            _dispatch_query_churn(index)
            _capture(index, index - 1)

    # Churn events scheduled after the last publication are still pending on
    # the kernel; fire them (and their re-homing) before the final snapshot.
    if churn_schedule:
        engine.run()

    summary = engine.metrics_summary()
    messages_total, ric_total = engine.traffic.snapshot()
    per_node_traffic = [
        counters.total for counters in engine.traffic.per_node().values()
    ]
    result = ExperimentResult(
        config=config,
        summary=summary,
        baseline=baseline,
        warmup_baseline=warmup_baseline,
        messages_total=messages_total,
        ric_messages_total=ric_total,
        messages_tuple_phase=messages_total - messages_after_queries,
        ric_messages_tuple_phase=ric_total - ric_after_queries,
        ranked_qpl=engine.qpl_distribution(),
        ranked_storage=engine.loads.ranked_storage_load(),
        ranked_storage_current=engine.storage_distribution(current=True),
        ranked_traffic=sorted(per_node_traffic, reverse=True),
        checkpoints=checkpoints,
        cumulative_qpl=cumulative_qpl,
        cumulative_storage=cumulative_storage,
        answers=int(summary.get("answers", 0)),
    )
    # Release the runtime (actor tasks, event loop, store handles): on the
    # asyncio transport a garbage-collected loop would warn about pending
    # actor tasks, and a sqlite store holds an open connection.
    engine.close()
    return result
