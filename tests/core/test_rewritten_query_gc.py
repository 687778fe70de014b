"""Rewritten queries die with their own window, in every run.

A rewritten query whose window closed can never be completed again (Section
5), whatever the tuple store keeps.  The engine sweeps every node's
rewritten-query table as each drain starts, with or without the stored-tuple
horizon ``tuple_gc_window``, and judges a window by the same clocks the
trigger path does.  Both runtimes run each test.
"""

from __future__ import annotations

import random
from typing import List, Optional

import pytest

from repro.core.config import RJoinConfig
from repro.core.engine import RJoinEngine
from repro.core.reference import ReferenceEngine
from repro.core.windows import expired
from repro.sql.ast import WindowSpec

pytestmark = pytest.mark.hard_timeout(120)

RUNTIMES = ("sim", "asyncio")


def as_bag(values) -> List[str]:
    return sorted(repr(v) for v in values)


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("horizon", [None, WindowSpec(size=3, mode="time")],
                         ids=["no-horizon", "horizon"])
def test_a_gc_tick_judges_time_windows_by_the_time_clock(runtime, horizon):
    """A sweep (or a GC tick) that falls while an older tuple is undrained
    must not drop the rewritten query that tuple completes: the time clock
    reads the first undrained tuple's publication time, not the transport
    clock."""
    engine = RJoinEngine(
        RJoinConfig(
            num_nodes=8,
            seed=3,
            runtime=runtime,
            hop_delay=0.0,
            tuple_gc_window=horizon,
            gc_every_tuples=3,
        )
    )
    engine.register_relation("R", ["a", "b"])
    engine.register_relation("S", ["b", "c"])
    reference = ReferenceEngine(engine.catalog)
    try:
        handle = engine.submit(
            "SELECT R.a, S.c FROM R, S WHERE R.b = S.b WINDOW 3 TIME"
        )
        reference.submit(
            handle.query,
            query_id=handle.query_id,
            insertion_time=handle.insertion_time,
        )
        reference.publish_tuple(engine.publish("R", (1, 7)))
        reference.publish_tuple(engine.publish("S", (7, 9), process=False))
        engine.tick(5)
        reference.publish_tuple(engine.publish("R", (2, 8), process=False))
        engine.run()
        assert as_bag(reference.answers(handle.query_id)) == as_bag([(1, 9)])
        assert as_bag(handle.values()) == as_bag([(1, 9)])
    finally:
        engine.close()


class TestRewrittenStateIsBounded:
    """Without a horizon, windowed queries hold what a horizon run holds."""

    WINDOW = WindowSpec(size=20, mode="tuples")
    PUBLISHES = 300

    def run(self, runtime: str, horizon: Optional[WindowSpec]):
        """Live rewritten records after every publish, and the answers.

        After every publish no stored record may be past its window: the
        drain it ran started with a sweep at that publish's clock.
        """
        engine = RJoinEngine(
            RJoinConfig(
                num_nodes=16,
                seed=11,
                runtime=runtime,
                tuple_gc_window=horizon,
                gc_every_tuples=10,
            )
        )
        for relation in ("R", "S", "T"):
            engine.register_relation(relation, ["a", "b"])
        rng = random.Random(5)
        live: List[int] = []
        try:
            for _ in range(6):
                engine.submit(
                    "SELECT R.a, T.b FROM R, S, T "
                    "WHERE R.b = S.a AND S.b = T.a " + str(self.WINDOW)
                )
            for _ in range(self.PUBLISHES):
                relation = rng.choice("RST")
                engine.publish(relation, (rng.randrange(10), rng.randrange(10)))
                tables = [node.rewritten_queries for node in engine.nodes.values()]
                live.append(sum(len(table) for table in tables))
                for table in tables:
                    for _, records in table.items():
                        for record in records:
                            assert not expired(
                                self.WINDOW,
                                record.state.window_state,
                                engine.published_tuples,
                            )
            answers = sorted(
                (handle.query_id, tuple(as_bag(handle.values())))
                for handle in engine.handles.values()
            )
        finally:
            engine.close()
        return live, answers

    @pytest.mark.parametrize("runtime", RUNTIMES)
    def test_windowed_queries_without_a_horizon_stay_bounded(self, runtime):
        live, answers = self.run(runtime, None)
        with_horizon, horizon_answers = self.run(runtime, self.WINDOW)
        assert live == with_horizon
        assert answers == horizon_answers
        assert sum(len(values) for _, values in answers) >= 100
