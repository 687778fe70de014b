"""``publish_batch`` under a tuple window answers exactly what the oracle does.

A burst is in flight all at once: its last tuple can reach a node before an
earlier one of the same burst does.  Window expiry is therefore judged
against the first undrained sequence number, not the newest one — otherwise
a rewritten query whose window closes inside the burst was dropped (on
arrival, or from the query table when a later tuple of the burst probed it)
although an in-flight tuple of that burst would still have completed it.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.core.config import RJoinConfig
from repro.core.engine import RJoinEngine
from repro.core.reference import ReferenceEngine
from repro.sql.ast import WindowSpec
from repro.workload.generator import WorkloadGenerator, WorkloadSpec

pytestmark = pytest.mark.hard_timeout(120)

BURST = 10


def as_bag(values) -> List[str]:
    return sorted(repr(v) for v in values)


@pytest.mark.parametrize("seed", [1, 2, 6])
@pytest.mark.parametrize("runtime", ["sim", "asyncio"])
def test_bursts_under_a_tuple_window_match_the_reference(runtime, seed):
    window = WindowSpec(size=8, mode="tuples")
    generator = WorkloadGenerator(
        WorkloadSpec(
            num_relations=3,
            attributes_per_relation=2,
            value_domain=3,
            join_arity=2,
            window=window,
            seed=seed,
        )
    )
    engine = RJoinEngine(
        RJoinConfig(
            num_nodes=16,
            seed=seed,
            runtime=runtime,
            tuple_gc_window=window,
            gc_every_tuples=BURST,
        )
    )
    engine.register_catalog(generator.catalog)
    reference = ReferenceEngine(generator.catalog)
    handles = []
    for query in generator.generate_queries(6):
        handle = engine.submit(query)
        reference.submit(
            query, query_id=handle.query_id, insertion_time=handle.insertion_time
        )
        handles.append(handle)
    rows = [(tup.relation, tup.values) for tup in generator.generate_tuples(80)]
    for start in range(0, len(rows), BURST):
        for tup in engine.publish_batch(rows[start : start + BURST]):
            reference.publish_tuple(tup)
    expected = 0
    for handle in handles:
        bag = as_bag(handle.values())
        assert bag == as_bag(reference.answers(handle.query_id)), handle.query_id
        expected += len(bag)
    engine.close()
    assert expected > 0  # the workload must actually join something


def test_the_sequence_clock_reads_the_first_undrained_tuple(small_catalog):
    engine = RJoinEngine(RJoinConfig(num_nodes=8, seed=3), catalog=small_catalog)
    engine.publish("R", (1, 2))
    assert engine._sequence_clock() == 1
    first, *_ = engine.publish_batch(
        [("R", (3, 4)), ("S", (4, 5)), ("R", (6, 7))], process=False
    )
    assert engine._sequence_clock() == first.sequence == 2
    engine.publish("S", (7, 8), process=False)
    assert engine._sequence_clock() == 2
    engine.run()
    assert engine._sequence_clock() == 5
