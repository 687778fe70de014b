"""JSON-serializable schema for experiment results.

The parallel grid runner streams one JSON document per grid cell to disk so
that interrupted sweeps can resume and downstream tooling (reports, plots,
regression diffs) can consume results without importing the engine.  This
module owns the schema: converting :class:`ExperimentConfig` /
:class:`ExperimentResult` to plain JSON-safe dictionaries, and the
mean/stddev aggregation applied across seeds.

``RESULT_SCHEMA_VERSION`` is bumped on every incompatible change; a file
written under another version is recomputed by the runner and refused by
every reader.
"""

from __future__ import annotations

import math
from dataclasses import fields
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.experiments.config import ChurnSpec, ExperimentConfig, QueryChurnSpec
from repro.experiments.runner import ExperimentResult
from repro.sql.ast import WindowSpec

#: v18: the summary gained ``share_lookups`` and ``share_hits`` (kept
#: states with a share key, and those a resident host absorbed).  v17: the
#: summary gained ``backpressure_escapes`` (the asyncio runtime's
#: force-enqueues past a full inbox).  v16: the config dict carries every
#: engine field (``ExperimentConfig`` is an ``RJoinConfig`` plus its
#: workload), and only those a run can set: no identifier width, ALTT
#: retention, RIC window or RIC freshness, and churn schedules of rates and
#: bounds alone.  Only the current version loads:
#: ``load_cells`` and ``report --diff`` refuse a file of any other one, and
#: ``run`` recomputes its cell.
RESULT_SCHEMA_VERSION = 18

#: The declared key set of ``RJoinEngine.metrics_summary`` — the flat
#: per-run metric dictionary embedded in every result cell (``summary`` /
#: ``baseline`` / ``warmup_baseline`` fields and checkpoint snapshots).
#: Keep in lock step with ``core/engine.py``: a ``ChurnStats`` field, a
#: per-node counter and a declared histogram each surface under their own
#: names, and ``tests/analysis/test_schema_sync.py`` fails when the summary
#: an engine produces and this tuple differ in either direction.
SUMMARY_SCHEMA: Tuple[str, ...] = (
    "nodes",
    "published_tuples",
    "submitted_queries",
    "active_queries",
    "total_messages",
    "ric_messages",
    "messages_per_node",
    "ric_messages_per_node",
    "total_qpl",
    "qpl_per_node",
    "total_storage",
    "storage_per_node",
    "current_storage",
    "answers",
    "participating_nodes",
    "membership_events",
    "joins",
    "leaves",
    "crashes",
    "records_rehomed",
    "bytes_rehomed",
    "records_lost",
    "bytes_lost",
    "dropped_messages",
    "stale_one_hop_attempts",
    "queries_removed",
    "records_retracted",
    "records_vacuumed",
    "orphaned_state_records",
    "failover_reregistrations",
    "replica_repairs",
    "answers_rerouted",
    "queries_triggered",
    "trigger_candidates_scanned",
    "shared_state_fanout",
    "share_lookups",
    "share_hits",
    "backpressure_escapes",
    "ric_chains_started",
    "ric_questions_joined",
    "ric_questions_spared",
    "ric_chains_lost",
    "arc_sends_direct",
    "arc_sends_misdirected",
    # Observability histogram percentiles (three keys per histogram declared
    # in ``repro.obs.instruments.HISTOGRAMS``; all zero when observability
    # is off so the key set never depends on the mode).
    "answer_latency_p50",
    "answer_latency_p95",
    "answer_latency_p99",
    "hop_delay_p50",
    "hop_delay_p95",
    "hop_delay_p99",
    "handler_service_time_us_p50",
    "handler_service_time_us_p95",
    "handler_service_time_us_p99",
    "inbox_depth_p50",
    "inbox_depth_p95",
    "inbox_depth_p99",
    "store_probe_batch_p50",
    "store_probe_batch_p95",
    "store_probe_batch_p99",
)


# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------
def window_to_dict(window: Optional[WindowSpec]) -> Optional[Dict[str, object]]:
    """A JSON-safe rendering of a window specification."""
    if window is None:
        return None
    return {"size": float(window.size), "mode": window.mode}


def window_from_dict(data: Optional[Mapping[str, object]]) -> Optional[WindowSpec]:
    """Rebuild a :class:`WindowSpec` from :func:`window_to_dict` output."""
    if data is None:
        return None
    return WindowSpec(size=float(data["size"]), mode=str(data["mode"]))


def churn_to_dict(churn: Optional[ChurnSpec]) -> Optional[Dict[str, object]]:
    """A JSON-safe rendering of a membership-churn schedule."""
    if churn is None:
        return None
    return {
        spec_field.name: getattr(churn, spec_field.name)
        for spec_field in fields(churn)
    }


def churn_from_dict(data: Optional[Mapping[str, Any]]) -> Optional[ChurnSpec]:
    """Rebuild a :class:`ChurnSpec` from :func:`churn_to_dict` output."""
    if data is None:
        return None
    return ChurnSpec(**data)


def query_churn_to_dict(
    spec: Optional[QueryChurnSpec],
) -> Optional[Dict[str, object]]:
    """A JSON-safe rendering of a query-lifecycle churn schedule."""
    if spec is None:
        return None
    return {
        spec_field.name: getattr(spec, spec_field.name)
        for spec_field in fields(spec)
    }


def query_churn_from_dict(
    data: Optional[Mapping[str, Any]],
) -> Optional[QueryChurnSpec]:
    """Rebuild a :class:`QueryChurnSpec` from :func:`query_churn_to_dict` output."""
    if data is None:
        return None
    return QueryChurnSpec(**data)


def config_to_dict(config: ExperimentConfig) -> Dict[str, object]:
    """A JSON-safe rendering of an experiment configuration."""
    data: Dict[str, object] = {}
    for spec_field in fields(config):
        value = getattr(config, spec_field.name)
        if isinstance(value, WindowSpec):
            value = window_to_dict(value)
        elif isinstance(value, ChurnSpec):
            value = churn_to_dict(value)
        elif isinstance(value, QueryChurnSpec):
            value = query_churn_to_dict(value)
        elif isinstance(value, tuple):
            value = list(value)
        data[spec_field.name] = value
    return data


def config_from_dict(data: Mapping[str, Any]) -> ExperimentConfig:
    """Rebuild an :class:`ExperimentConfig` from :func:`config_to_dict` output."""
    kwargs = dict(data)
    kwargs["tuple_gc_window"] = window_from_dict(data["tuple_gc_window"])
    kwargs["churn"] = churn_from_dict(data["churn"])
    kwargs["query_churn"] = query_churn_from_dict(data["query_churn"])
    return ExperimentConfig(**kwargs)


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------
def result_to_dict(result: ExperimentResult) -> Dict[str, object]:
    """Serialize everything a report needs from one experiment run.

    Checkpoint keys become strings (JSON objects cannot have integer keys);
    :func:`result_from_dict` restores them.
    """
    return {
        "schema_version": RESULT_SCHEMA_VERSION,
        "config": config_to_dict(result.config),
        "summary": dict(result.summary),
        "baseline": dict(result.baseline),
        "warmup_baseline": dict(result.warmup_baseline),
        "messages_total": int(result.messages_total),
        "ric_messages_total": int(result.ric_messages_total),
        "messages_tuple_phase": int(result.messages_tuple_phase),
        "ric_messages_tuple_phase": int(result.ric_messages_tuple_phase),
        "ranked_qpl": [int(v) for v in result.ranked_qpl],
        "ranked_storage": [int(v) for v in result.ranked_storage],
        "ranked_storage_current": [int(v) for v in result.ranked_storage_current],
        "ranked_traffic": [int(v) for v in result.ranked_traffic],
        "checkpoints": {
            str(index): dict(snapshot)
            for index, snapshot in result.checkpoints.items()
        },
        "cumulative_qpl": [int(v) for v in result.cumulative_qpl],
        "cumulative_storage": [int(v) for v in result.cumulative_storage],
        "answers": int(result.answers),
        # Derived per-figure quantities, precomputed so that reports never
        # need the ExperimentResult class.
        "derived": {
            "messages_per_node": result.messages_per_node,
            "ric_messages_per_node": result.ric_messages_per_node,
            "messages_per_node_per_tuple": result.messages_per_node_per_tuple,
            "ric_messages_per_node_per_tuple": result.ric_messages_per_node_per_tuple,
            "qpl_per_node": result.qpl_per_node,
            "storage_per_node": result.storage_per_node,
            "participating_nodes": float(result.participating_nodes),
            "max_qpl": float(result.max_qpl),
            "max_storage": float(result.max_storage),
        },
    }


def result_from_dict(data: Mapping[str, Any]) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from :func:`result_to_dict` output."""
    return ExperimentResult(
        config=config_from_dict(data["config"]),
        summary=dict(data["summary"]),
        baseline=dict(data["baseline"]),
        warmup_baseline=dict(data["warmup_baseline"]),
        messages_total=int(data["messages_total"]),
        ric_messages_total=int(data["ric_messages_total"]),
        messages_tuple_phase=int(data["messages_tuple_phase"]),
        ric_messages_tuple_phase=int(data["ric_messages_tuple_phase"]),
        ranked_qpl=list(data["ranked_qpl"]),
        ranked_storage=list(data["ranked_storage"]),
        ranked_storage_current=list(data["ranked_storage_current"]),
        ranked_traffic=list(data["ranked_traffic"]),
        checkpoints={
            int(index): dict(snapshot)
            for index, snapshot in data["checkpoints"].items()
        },
        cumulative_qpl=list(data["cumulative_qpl"]),
        cumulative_storage=list(data["cumulative_storage"]),
        answers=int(data["answers"]),
    )


# ---------------------------------------------------------------------------
# aggregation across seeds
# ---------------------------------------------------------------------------
def mean_stddev(values: Sequence[float]) -> Dict[str, float]:
    """Mean, population standard deviation, min, max and count of ``values``."""
    values = [float(v) for v in values]
    if not values:
        return {"mean": 0.0, "stddev": 0.0, "min": 0.0, "max": 0.0, "count": 0}
    mean = sum(values) / len(values)
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    return {
        "mean": mean,
        "stddev": math.sqrt(variance),
        "min": min(values),
        "max": max(values),
        "count": len(values),
    }


def aggregate_metrics(
    per_seed: Sequence[Mapping[str, float]],
) -> Dict[str, Dict[str, float]]:
    """Mean/stddev per metric across per-seed metric dictionaries.

    Only metrics present in *every* run are aggregated, so a partial cell
    cannot silently dilute a mean.
    """
    if not per_seed:
        return {}
    shared = set(per_seed[0])
    for metrics in per_seed[1:]:
        shared &= set(metrics)
    return {
        name: mean_stddev([metrics[name] for metrics in per_seed])
        for name in sorted(shared)
    }
