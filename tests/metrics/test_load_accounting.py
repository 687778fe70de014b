"""Each load figure has one home, and every derived figure agrees with it.

Current storage is read off the live nodes, and the network totals of QPL,
cumulative storage and traffic are sums of the per-node counters.  One churn
run that takes every path by which stored state leaves a node — window GC,
a graceful leave, a crash, a join and id movement re-homing state, query
retraction, and the vacuum once no query is left — must keep
``metrics_summary`` equal to an independent walk of the nodes' tables after
every step, on both store backends and both runtimes.
"""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.core.config import RJoinConfig
from repro.core.engine import RJoinEngine
from repro.sql.ast import WindowSpec
from repro.workload.generator import WorkloadGenerator, WorkloadSpec

pytestmark = pytest.mark.hard_timeout(120)

WINDOW = WindowSpec(size=12, mode="tuples")


def walk_current_storage(engine: RJoinEngine) -> Dict[str, int]:
    """Per live node: rewritten-query records plus stored tuple records.

    Counts the records themselves instead of asking the node or the load
    tracker for a size.
    """
    return {
        address: sum(len(records) for _, records in node.rewritten_queries.items())
        + sum(1 for _ in node.tuple_store)
        for address, node in engine.nodes.items()
    }


def assert_accounting(engine: RJoinEngine) -> Dict[str, float]:
    """Every load figure of the summary equals the state it describes."""
    summary = engine.metrics_summary()
    walk = walk_current_storage(engine)
    assert summary["current_storage"] == sum(walk.values())
    distribution = engine.storage_distribution(current=True)
    assert distribution == sorted(walk.values(), reverse=True)
    assert all(items >= 0 for items in distribution)
    loads = engine.loads.per_node().values()
    assert summary["total_qpl"] == sum(load.query_processing_load for load in loads)
    assert summary["total_storage"] == sum(load.storage_load for load in loads)
    traffic = engine.traffic.per_node().values()
    assert summary["total_messages"] == sum(counters.total for counters in traffic)
    assert summary["ric_messages"] == sum(counters.ric_total for counters in traffic)
    return summary


@pytest.mark.parametrize("runtime", ["sim", "asyncio"])
@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_every_removal_path_keeps_the_load_figures_exact(backend, runtime):
    generator = WorkloadGenerator(
        WorkloadSpec(
            num_relations=4,
            attributes_per_relation=3,
            value_domain=4,
            join_arity=3,
            window=WINDOW,
            seed=5,
        )
    )
    engine = RJoinEngine(
        RJoinConfig(
            num_nodes=16,
            seed=5,
            runtime=runtime,
            store_backend=backend,
            tuple_gc_window=WINDOW,
            gc_every_tuples=5,
            id_movement=True,
            rebalance_every_tuples=10,
        )
    )
    engine.register_catalog(generator.catalog)
    handles = [engine.submit(query) for query in generator.generate_queries(8)]
    rows = [(tup.relation, tup.values) for tup in generator.generate_tuples(120)]
    chunks: List[list] = [rows[start : start + 20] for start in range(0, 120, 20)]
    summaries = []

    def publish(chunk: list) -> None:
        for relation, values in chunk:
            engine.publish(relation, values)
        summaries.append(assert_accounting(engine))

    # Window GC and id movement run on their tuple schedules.
    publish(chunks[0])
    engine.add_node()
    summaries.append(assert_accounting(engine))
    publish(chunks[1])
    engine.remove_node()
    summaries.append(assert_accounting(engine))
    publish(chunks[2])
    engine.crash_node()
    summaries.append(assert_accounting(engine))
    publish(chunks[3])
    engine.rebalance()
    summaries.append(assert_accounting(engine))
    publish(chunks[4])
    publish(chunks[5])
    held = summaries[-1]
    # Retraction, then the vacuum once no query is left.
    for handle in handles:
        engine.remove_query(handle.query_id)
        summaries.append(assert_accounting(engine))
    final = summaries[-1]

    churn = engine.churn
    assert (churn.joins, churn.leaves, churn.crashes) == (1, 1, 1)
    assert churn.records_lost > 0 and churn.records_rehomed > 0
    # Id-movement rounds that moved state count as membership events too.
    assert churn.membership_events > 3
    assert churn.records_retracted > 0 and churn.records_vacuumed > 0
    # Removals lower the current figure, never the cumulative one.
    cumulative = [summary["total_storage"] for summary in summaries]
    assert cumulative == sorted(cumulative)
    # Window GC dropped more than the crash destroyed (records_lost also
    # counts ALTT entries, input queries and registrations).
    assert held["current_storage"] > 0
    assert held["total_storage"] - held["current_storage"] > churn.records_lost
    assert final["current_storage"] == 0
    engine.close()
