"""The four workloads of the end-to-end ledger and their seeded inputs.

Every workload is a closed loop with one client over three-way chain joins,
Zipf 0.9 data and ``WINDOW n TUPLES`` on every query, with the engine's
``tuple_gc_window`` set to the same window: state — and therefore the cost
of one published tuple — is stationary once one window of tuples has been
published, which is what the warm-up does.

The schema, the continuous queries and the tuple stream of a workload are
generated with :mod:`repro.workload.generator` from :data:`WORKLOAD_SEED`,
like a benchmark's fixed query set and scale factor.  A run's ``--seed``
decides where in that stream the run starts: somewhere within the first
warm-up's worth of publish calls.  Every seed thus publishes another stretch
of one plain stream — other tuples meet inside a window, other nodes publish
them, the RIC learns other rates — under the same queries and the same value
frequencies, and most of the timed tuples are shared between any two seeds.
Re-rolling those per seed moved messages per tuple by +-12 % between seeds on
``answer_flood`` and throughput with it, which would drown a 10 % regression.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.core.config import RJoinConfig
from repro.data.schema import Catalog
from repro.sql.ast import Query, WindowSpec
from repro.sql.formatter import format_query
from repro.workload.generator import WorkloadGenerator, WorkloadSpec

#: Seed of the query set and of the tuple stream.
WORKLOAD_SEED = 901
#: Seed of every engine-side random choice (owners, publishers, node ids).
ENGINE_SEED = 90
ZIPF_THETA = 0.9
JOIN_ARITY = 3
#: Floors of timed calls every run has to publish, so that code several
#: times faster than today's still has input until the deadline.
STREAM_FLOORS = 4

Row = Tuple[str, Tuple[int, ...]]
Call = Tuple[Row, ...]


@dataclass(frozen=True)
class Workload:
    """One cell of the ledger: engine configuration plus traffic shape."""

    name: str
    why: str
    runtime: str
    store_backend: str
    num_nodes: int
    num_relations: int
    attributes: int
    value_domain: int
    num_queries: int
    window: int
    #: Publish calls before the timed window (at least one window of tuples).
    warmup_calls: int
    #: Publish calls of the timed window's fixed work, its floor.
    timed_calls: int
    #: Tuples per publish call: 1 = ``publish``, more = ``publish_batch``.
    burst: int = 1
    #: Share of the expected answers a run may miss and still count as
    #: correct: 0 wherever the engine is exact.  Only the recorded
    #: ``publish_batch`` finding (README) has an allowance, to be set to 0 by
    #: the change that fixes it; a spurious answer is never tolerated.
    tolerated_missing_share: float = 0.0

    @property
    def window_spec(self) -> WindowSpec:
        return WindowSpec(size=self.window, mode="tuples")

    def engine_config(self) -> RJoinConfig:
        return RJoinConfig(
            num_nodes=self.num_nodes,
            runtime=self.runtime,
            strategy="rjoin",
            store_backend=self.store_backend,
            tuple_gc_window=self.window_spec,
            seed=ENGINE_SEED,
            observability="off",
        )


_ANSWER_FLOOD = dict(
    store_backend="memory", num_nodes=24, num_relations=4, attributes=3,
    value_domain=4, num_queries=30, window=40, warmup_calls=80, timed_calls=1000,
)

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="answer_flood",
        why="tiny value domain: ~70% of deliveries are single-answer messages "
            "sent direct, so net, dht.api and answer collection dominate",
        runtime="sim",
        **_ANSWER_FLOOD,
    ),
    Workload(
        name="query_flood",
        why="600 stored queries, wide domain: query-table probes, rewriting, "
            "strategy/RIC choice and multi-hop routing dominate; few answers",
        runtime="sim", store_backend="memory", num_nodes=64, num_relations=8,
        attributes=4, value_domain=200, num_queries=600, window=100,
        warmup_calls=100, timed_calls=300,
    ),
    Workload(
        name="batch_ingest_sqlite",
        why="publish_batch bursts of 20 on the sqlite store: the batch path "
            "and the write/expiry side of data, where a store call is dearest",
        runtime="sim", store_backend="sqlite", num_nodes=32, num_relations=6,
        attributes=4, value_domain=1000, num_queries=20, window=500,
        warmup_calls=25, timed_calls=200, burst=20,
        tolerated_missing_share=0.002,
    ),
    Workload(
        name="asyncio_answer_flood",
        why="answer_flood's exact inputs on the asyncio actor runtime: a "
            "sim-kernel-only change must not move it, a message-count change must",
        runtime="asyncio",
        **_ANSWER_FLOOD,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


@dataclass(frozen=True)
class Inputs:
    """Everything a run feeds the engine, generated before any clock starts.

    Each call is the rows of one ``publish`` (one row) or one
    ``publish_batch`` burst.
    """

    catalog: Catalog
    queries: Tuple[Query, ...]
    sql: Tuple[str, ...]
    warmup: Tuple[Call, ...]
    #: The floor and what follows it, :data:`STREAM_FLOORS` floors in all.
    timed: Tuple[Call, ...]

    def published(self, timed_calls: int) -> List[Row]:
        """The tuple stream up to timed call ``timed_calls``, in sequence order."""
        return flatten(self.warmup + self.timed[:timed_calls])


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """The workload's queries and the stretch of its stream that ``seed`` picks."""
    source = WorkloadGenerator(
        WorkloadSpec(
            num_relations=workload.num_relations,
            attributes_per_relation=workload.attributes,
            value_domain=workload.value_domain,
            zipf_theta=ZIPF_THETA,
            join_arity=JOIN_ARITY,
            window=workload.window_spec,
            seed=WORKLOAD_SEED,
        )
    )
    queries = tuple(source.generate_queries(workload.num_queries))
    needed = workload.warmup_calls + STREAM_FLOORS * workload.timed_calls
    # The whole stream whatever the seed: a stretch must not depend on how
    # many tuples were drawn before it.
    rows = [(generated.relation, generated.values) for generated in
            source.generate_tuples((workload.warmup_calls + needed) * workload.burst)]
    first = random.Random(seed).randrange(workload.warmup_calls)
    calls = tuple(tuple(rows[at:at + workload.burst])
                  for at in range(first * workload.burst,
                                  (first + needed) * workload.burst, workload.burst))
    return Inputs(
        catalog=source.catalog,
        queries=queries,
        sql=tuple(format_query(query) for query in queries),
        warmup=calls[:workload.warmup_calls],
        timed=calls[workload.warmup_calls:],
    )


def flatten(calls: Iterable[Sequence[Row]]) -> List[Row]:
    """The tuple stream of ``calls`` in publication (= sequence) order."""
    return [row for call in calls for row in call]
