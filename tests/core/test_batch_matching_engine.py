"""Batch-vs-per-tuple answer equivalence at the engine level.

The set-at-a-time store matching work rides the same invariant as the
backend swap: *how* tuples reach the stores (one ``publish`` per tuple vs
bursts through ``RJoinEngine.publish_batch``) and which backend serves the
probes are implementation details — the bag of answers every query handle
collects must be identical across all four indexing strategies, both
backends, both publish paths and the centralised reference oracle.

Two window regimes:

* a tuple-mode window wider than the whole run — nothing can expire, so
  the two publish paths must agree answer-for-answer (and with the
  reference oracle);
* a tight tuple-mode window under GC pressure — ``publish_batch`` assigns
  the batch's sequence numbers up front, so expiry is judged against the
  first undrained one (``tests/core/test_publish_batch_windows.py``); the
  batch path must produce the oracle's answers on every backend.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.core.config import RJoinConfig
from repro.core.engine import RJoinEngine
from repro.core.reference import ReferenceEngine
from repro.data.backends import BACKEND_NAMES
from repro.sql.ast import WindowSpec
from repro.workload.generator import WorkloadGenerator, WorkloadSpec

STRATEGIES = ("rjoin", "random", "worst", "first")

NUM_QUERIES = 6
NUM_TUPLES = 60
BATCH_SIZE = 10


def run_workload(
    backend: str,
    strategy: str,
    batched: bool,
    window_size: float,
    seed: int = 11,
):
    """One run over the given backend; ``batched`` selects the publish path."""
    window = WindowSpec(size=window_size, mode="tuples")
    spec = WorkloadSpec(
        num_relations=4,
        attributes_per_relation=3,
        value_domain=4,
        join_arity=3,
        window=window,
        seed=seed,
    )
    generator = WorkloadGenerator(spec)
    config = RJoinConfig(
        num_nodes=16,
        seed=seed,
        strategy=strategy,
        store_backend=backend,
        tuple_gc_window=window,
        gc_every_tuples=10,
    )
    engine = RJoinEngine(config)
    engine.register_catalog(generator.catalog)
    reference = ReferenceEngine(generator.catalog)
    handles = []
    for query in generator.generate_queries(NUM_QUERIES):
        handle = engine.submit(query)
        reference.submit(
            query, query_id=handle.query_id, insertion_time=handle.insertion_time
        )
        handles.append(handle)
    rows = [
        (generated.relation, generated.values)
        for generated in generator.generate_tuples(NUM_TUPLES)
    ]
    if batched:
        for start in range(0, len(rows), BATCH_SIZE):
            for tup in engine.publish_batch(rows[start : start + BATCH_SIZE]):
                reference.publish_tuple(tup)
    else:
        for relation, values in rows:
            reference.publish_tuple(engine.publish(relation, values))
    return engine, reference, handles


def as_bag(values) -> List[str]:
    return sorted(repr(v) for v in values)


class TestBatchPublishEquivalence:
    """Expiry-free window: batch == per-tuple == reference, whole grid."""

    WINDOW = float(NUM_TUPLES + 40)  # wider than the run — nothing expires

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_batched_publish_matches_per_tuple_and_reference(
        self, backend, strategy
    ):
        """strategy × backend grid: batch path == per-tuple path == oracle."""
        _, _, per_tuple_handles = run_workload(
            backend, strategy, batched=False, window_size=self.WINDOW
        )
        _, reference, batch_handles = run_workload(
            backend, strategy, batched=True, window_size=self.WINDOW
        )
        assert len(batch_handles) == len(per_tuple_handles)
        collected = 0
        for handle, per_tuple_handle in zip(batch_handles, per_tuple_handles):
            bag = as_bag(handle.values())
            assert bag == as_bag(per_tuple_handle.values())
            assert bag == as_bag(reference.answers(handle.query_id))
            collected += len(bag)
        assert collected > 0  # the workload must actually join something


class TestBatchPathBackendInvariance:
    """Tight window + GC pressure: the batch path is backend-invariant and
    exact."""

    WINDOW = 25.0

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_batched_answers_identical_across_backends(self, backend, strategy):
        _, _, memory_handles = run_workload(
            "memory", strategy, batched=True, window_size=self.WINDOW
        )
        _, reference, handles = run_workload(
            backend, strategy, batched=True, window_size=self.WINDOW
        )
        for handle, memory_handle in zip(handles, memory_handles):
            bag = as_bag(handle.values())
            assert bag == as_bag(memory_handle.values())
            assert bag == as_bag(reference.answers(handle.query_id))
