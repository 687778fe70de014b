"""The engine's draining calls run with CPython's cyclic collector paused.

Two halves:

* **the invariant it rests on** — the state the publish path makes is
  acyclic, so reference counting alone frees it: with the collector off,
  a run of ``submit`` / ``publish`` / ``publish_batch`` / ``remove_query``
  (tuple and time windows, ``DISTINCT``, a twin-query share, a crash) on
  either runtime and either store backend leaves ``gc.collect()`` nothing
  to find;
* **a closed engine is no cycle** — built, driven, closed and dropped on
  either runtime and either backend, an engine leaves ``gc.collect()``
  nothing to find, and its handles stay readable;
* **the collector state around a call** — an enabled collector is enabled
  again after the call, also after an error inside it; one the caller
  disabled stays disabled; a nested :meth:`RJoinEngine.run` does not
  switch it back on before the outer call ends.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator, List

import pytest

from repro.core.answers import QueryHandle
from repro.core.config import RJoinConfig
from repro.core.engine import RJoinEngine
from repro.core.node import RJoinNode
from repro.errors import EngineError
from repro.sql.ast import WindowSpec

pytestmark = pytest.mark.hard_timeout(120)

#: What the drive submits: a tuple window, a twin of it (shared state), a
#: time window, a DISTINCT query and a windowed 3-way join.
QUERIES = (
    "SELECT R.a, S.d FROM R, S WHERE R.b = S.c WINDOW 30 TUPLES",
    "SELECT R.a, S.d FROM R, S WHERE R.b = S.c WINDOW 30 TUPLES",
    "SELECT R.a, T.f FROM R, T WHERE R.b = T.e WINDOW 15 TIME",
    "SELECT DISTINCT S.d, T.f FROM S, T WHERE S.c = T.e",
    "SELECT R.a, S.d, T.f FROM R, S, T WHERE R.b = S.c AND S.d = T.e "
    "WINDOW 30 TUPLES",
)

#: The same drive under a GC horizon, so that the GC ticks run too; every
#: query must then fit the horizon.
HORIZON_QUERIES = (
    "SELECT R.a, S.d FROM R, S WHERE R.b = S.c WINDOW 20 TUPLES",
    "SELECT R.a, S.d FROM R, S WHERE R.b = S.c WINDOW 20 TUPLES",
    "SELECT DISTINCT S.d, T.f FROM S, T WHERE S.c = T.e WINDOW 10 TUPLES",
    "SELECT R.a, S.d, T.f FROM R, S, T WHERE R.b = S.c AND S.d = T.e "
    "WINDOW 20 TUPLES",
)


@contextmanager
def paused_collector() -> Iterator[None]:
    """Collect what is there, then keep the collector off for the body."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.fixture
def collector_on() -> Iterator[None]:
    """Run the test with the collector on, whatever the caller had."""
    was_enabled = gc.isenabled()
    gc.enable()
    try:
        yield
    finally:
        if not was_enabled:
            gc.disable()


def make_engine(**overrides) -> RJoinEngine:
    engine = RJoinEngine(RJoinConfig(num_nodes=8, seed=7, **overrides))
    engine.register_relation("R", ["a", "b"])
    engine.register_relation("S", ["c", "d"])
    engine.register_relation("T", ["e", "f"])
    return engine


def rows(start: int, count: int) -> List[tuple]:
    """``count`` deterministic rows over a domain of 4, round-robin R/S/T."""
    return [
        ("RST"[i % 3], (i % 4, (i * 7) % 4)) for i in range(start, start + count)
    ]


def drive(engine: RJoinEngine, queries) -> List[QueryHandle]:
    """Every draining call of the engine, a few times over; the handles."""
    handles = [engine.submit(text) for text in queries]
    for relation, values in rows(0, 30):
        engine.publish(relation, values)
    engine.tick(5.0)
    for start in range(30, 90, 10):
        engine.publish_batch(rows(start, 10))
        engine.tick(3.0)
    engine.remove_query(handles[0].query_id)
    engine.crash_node()
    engine.publish_batch(rows(90, 30))
    assert sum(handle.count for handle in handles) > 0
    return handles


class TestPublishPathIsAcyclic:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    @pytest.mark.parametrize("runtime", ["sim", "asyncio"])
    @pytest.mark.parametrize("horizon", [False, True], ids=["no-gc", "gc-ticks"])
    def test_no_cyclic_garbage(self, runtime, backend, horizon):
        overrides = {"runtime": runtime, "store_backend": backend}
        queries = QUERIES
        if horizon:
            overrides.update(
                tuple_gc_window=WindowSpec(size=20, mode="tuples"),
                gc_every_tuples=10,
            )
            queries = HORIZON_QUERIES
        # Built first: importing the asyncio runtime leaves cyclic garbage
        # of its own (ssl's enum classes), and building is no draining call.
        engine = make_engine(**overrides)
        try:
            with paused_collector():
                drive(engine, queries)
                assert gc.collect() == 0
        finally:
            engine.close()


class TestClosedEngineIsAcyclic:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    @pytest.mark.parametrize("runtime", ["sim", "asyncio"])
    def test_dropping_a_closed_engine_leaves_no_cyclic_garbage(
        self, runtime, backend
    ):
        # Importing the asyncio runtime leaves cyclic garbage of its own
        # (ssl's enum classes): one engine built first takes it out of the
        # count.
        make_engine(runtime="asyncio").close()
        with paused_collector():
            engine = make_engine(runtime=runtime, store_backend=backend)
            handles = drive(engine, QUERIES)
            engine.close()
            del engine
            assert gc.collect() == 0
        assert all(handle.count == len(handle.answers) for handle in handles)
        assert sum(handle.count for handle in handles) > 0


class TestCollectorState:
    def test_enabled_stays_enabled_after_each_call(self, collector_on):
        engine = make_engine()
        handle = engine.submit(QUERIES[0])
        engine.publish("R", (1, 2))
        assert gc.isenabled()
        engine.publish_batch(rows(0, 6))
        assert gc.isenabled()
        engine.remove_query(handle.query_id)
        assert gc.isenabled()

    def test_enabled_again_after_an_error_inside_publish(self, collector_on):
        engine = make_engine()
        with pytest.raises(EngineError, match="unknown publisher"):
            engine.publish("R", (1, 2), publisher="nowhere")
        assert gc.isenabled()
        with pytest.raises(EngineError, match="row 1"):
            engine.publish_batch([("R", (1, 2)), "not a row"])
        assert gc.isenabled()

    def test_a_caller_that_disabled_it_keeps_it_disabled(self):
        engine = make_engine()
        with paused_collector():
            engine.submit(QUERIES[0])
            engine.publish_batch(rows(0, 6))
            engine.run()
            assert not gc.isenabled()

    def test_paused_for_the_whole_call_across_the_nested_run(
        self, collector_on, monkeypatch
    ):
        """``_publish`` drains through :meth:`run`, then runs the GC ticks:
        the inner ``run`` must leave the collector off for those."""
        engine = make_engine(
            tuple_gc_window=WindowSpec(size=20, mode="tuples"), gc_every_tuples=1
        )
        engine.submit(HORIZON_QUERIES[0])
        seen: List[bool] = []
        gc_expired_state = RJoinNode.gc_expired_state

        def recording(node: RJoinNode):
            seen.append(gc.isenabled())
            return gc_expired_state(node)

        monkeypatch.setattr(RJoinNode, "gc_expired_state", recording)
        engine.transport.schedule_in(0.0, lambda: seen.append(gc.isenabled()))
        engine.publish("R", (1, 2))
        assert len(seen) == 1 + len(engine.nodes)
        assert not any(seen)
        assert gc.isenabled()

    def test_a_cycle_made_during_a_call_is_collected_after_it(self, collector_on):
        engine = make_engine()

        def make_cycle() -> None:
            cycle: List[object] = []
            cycle.append(cycle)

        engine.transport.schedule_in(0.0, make_cycle)
        engine.run()
        assert gc.isenabled()
        assert gc.collect() >= 1
