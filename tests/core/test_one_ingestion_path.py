"""``publish`` is a one-row ``publish_batch``: one ingestion path, one commit.

The same seeded stream published tuple by tuple and as one-row batches is
the same run: the same answer bags, sequence numbers, publishers, message
counts and root spans, on both stores and both runtimes.  A committing call
leaves no write buffered in any store.
"""

from __future__ import annotations

import pytest

from repro.core.config import RJoinConfig
from repro.core.engine import RJoinEngine
from repro.workload.generator import WorkloadGenerator, WorkloadSpec

pytestmark = pytest.mark.hard_timeout(120)


def _run(runtime: str, backend: str, one_row_batches: bool) -> tuple:
    generator = WorkloadGenerator(
        WorkloadSpec(
            num_relations=3,
            attributes_per_relation=2,
            value_domain=4,
            join_arity=3,
            seed=5,
        )
    )
    engine = RJoinEngine(
        RJoinConfig(
            num_nodes=16,
            seed=5,
            runtime=runtime,
            store_backend=backend,
            observability="on",
        )
    )
    engine.register_catalog(generator.catalog)
    handles = [engine.submit(query) for query in generator.generate_queries(4)]
    published = []
    for tup in generator.generate_tuples(40):
        if one_row_batches:
            (row,) = engine.publish_batch([(tup.relation, tup.values)])
        else:
            row = engine.publish(tup.relation, tup.values)
        published.append((row.sequence, row.publisher, row.pub_time))
    assert engine.obs is not None
    roots = [
        (span.name, span.trace_id, span.node)
        for span in engine.obs.spans
        if span.parent_id is None and span.trace_id.startswith("pub-")
    ]
    result = (
        [sorted(map(repr, handle.values())) for handle in handles],
        published,
        engine.traffic.total_messages,
        roots,
    )
    engine.close()
    return result


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("runtime", ["sim", "asyncio"])
def test_publish_is_a_one_row_batch(runtime, backend):
    bags, published, messages, roots = _run(runtime, backend, one_row_batches=False)
    assert sum(map(len, bags)) > 0  # the stream must actually join something
    assert [name for name, _, _ in roots] == ["publish"] * len(published)
    assert (bags, published, messages, roots) == _run(
        runtime, backend, one_row_batches=True
    )


ROWS = [("R", (1, 10)), ("S", (10, 9)), ("R", (2, 10)), ("S", (11, 8))]


@pytest.mark.parametrize("method", ["publish", "publish_batch"])
def test_a_commit_leaves_no_sqlite_write_buffered(small_catalog, method):
    """The write-buffer bound: every store's buffer is empty after a commit."""
    engine = RJoinEngine(
        RJoinConfig(num_nodes=8, seed=7, store_backend="sqlite"),
        catalog=small_catalog,
    )
    engine.submit("SELECT R.a, S.d FROM R, S WHERE R.b = S.c")
    batches = [[row] for row in ROWS] if method == "publish" else [ROWS[:2], ROWS[2:]]
    for batch in batches:
        if method == "publish":
            engine.publish(*batch[0])
        else:
            engine.publish_batch(batch)
        buffered = [len(node.tuple_store._pending) for node in engine.nodes.values()]
        assert buffered == [0] * len(engine.nodes)
    assert engine.total_answers == 2
    engine.close()
