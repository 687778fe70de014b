"""Trace-context survival under churn (ISSUE satellite: no orphan spans).

Owner-crash failover redirects in-flight answers to the failed-over owner
*without* re-stamping them — the redirected envelope keeps the trace
context it was posted with, so the eventual delivery span still links into
the original trace.  Membership re-homing moves state through ordinary
messages, which must all be stamped like any other traffic.  Both are
checked across every indexing strategy on both runtimes: after arbitrary
churn, every span's parent resolves inside its trace and parent/child hop
depths stay consistent.
"""

from __future__ import annotations

import pytest

from repro.core.config import RJoinConfig
from repro.core.engine import RJoinEngine
from repro.workload.generator import WorkloadGenerator, WorkloadSpec

STRATEGIES = ("rjoin", "random", "worst", "first")
RUNTIMES = ("sim", "asyncio")


def build(runtime="sim", strategy="rjoin", queries=6, tuples=20, **overrides):
    spec = WorkloadSpec(
        num_relations=4,
        attributes_per_relation=3,
        value_domain=4,
        join_arity=3,
        seed=77,
    )
    generator = WorkloadGenerator(spec)
    params = dict(
        num_nodes=16,
        seed=7,
        runtime=runtime,
        strategy=strategy,
        observability="on",
    )
    params.update(overrides)
    engine = RJoinEngine(RJoinConfig(**params))
    engine.register_catalog(generator.catalog)
    handles = [engine.submit(q) for q in generator.generate_queries(queries)]
    for generated in generator.generate_tuples(tuples):
        engine.publish(generated.relation, generated.values)
    return generator, engine, handles


def assert_trace_integrity(engine):
    """No orphan spans; parent links are intra-trace and one hop deeper."""
    spans = engine.obs.spans
    assert spans, "churn run recorded no spans"
    by_id = {span.span_id: span for span in spans}
    by_trace = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, set()).add(span.span_id)
    for span in spans:
        if span.parent_id is None:
            continue
        assert span.parent_id in by_trace[span.trace_id], (
            f"orphan span {span.span_id} ({span.name}@{span.node}): parent "
            f"{span.parent_id} missing from trace {span.trace_id}"
        )
        parent = by_id[span.parent_id]
        assert span.hop == parent.hop + 1
    return spans


@pytest.mark.hard_timeout(300)
class TestChurnMatrix:
    """4 strategies × 2 runtimes: crash + graceful churn keep traces whole."""

    @pytest.mark.parametrize("runtime", RUNTIMES)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_crash_and_rehoming_leave_no_orphan_spans(self, strategy, runtime):
        generator, engine, handles = build(runtime=runtime, strategy=strategy)
        # Crash a query owner: failover re-registers its queries elsewhere.
        victim = handles[0].owner
        engine.crash_node(victim)
        assert engine.churn.failover_reregistrations > 0
        # Graceful join + leave re-home state through ordinary messages.
        engine.add_node()
        survivor = next(
            address for address in engine.nodes if address != handles[1].owner
        )
        engine.remove_node(survivor)
        for generated in generator.generate_tuples(10):
            engine.publish(generated.relation, generated.values)
        spans = assert_trace_integrity(engine)
        # Post-churn deliveries were stamped too: the trace keeps growing.
        assert sum(handle.count for handle in handles) > 0
        assert {span.node for span in spans} & set(engine.nodes)
        engine.close()


class TestInFlightFailover:
    """The redirected answer keeps its original trace (sim: deterministic)."""

    def test_rerouted_answer_stays_in_its_trace(self):
        from repro.core.protocol import AnswerMessage

        generator, engine, handles = build(queries=8, tuples=30)
        by_id = {handle.query_id: handle for handle in handles}
        # Step the kernel by hand until an answer is in flight towards a
        # remote owner, then crash that owner before the delivery fires
        # (the idiom of test_lifecycle's reroute test).
        target = None
        for generated in generator.generate_tuples(60):
            engine.publish(generated.relation, generated.values, process=False)
            while engine.kernel.pending_events:
                pending = [
                    args[0]
                    for _, args in engine.kernel.pending()
                    if args
                    and hasattr(args[0], "message")
                    and isinstance(args[0].message, AnswerMessage)
                    and args[0].sender != args[0].destination
                    and args[0].destination in engine.nodes
                ]
                if pending:
                    target = pending[0]
                    break
                engine.kernel.step()
            if target is not None:
                break
        assert target is not None, "workload produced no in-flight answer"
        assert target.trace is not None, "in-flight envelope was not stamped"
        redirected_trace = target.trace.trace_id
        redirected_span = target.trace.span_id
        owner = target.destination
        handle = by_id[target.message.answers[0][0]]
        delivered_before = handle.count
        engine.crash_node(owner)
        assert engine.churn.answers_rerouted > 0
        engine.run()
        assert handle.count > delivered_before
        assert handle.owner != owner
        # The redirected delivery opened exactly one span, under the trace
        # the answer was originally posted with — on the *new* owner.
        matches = [
            span
            for span in engine.obs.spans
            if span.trace_id == redirected_trace
            and span.span_id == redirected_span
        ]
        assert len(matches) == 1
        assert matches[0].node == handle.owner
        assert_trace_integrity(engine)
        engine.close()

    def test_dropped_deliveries_are_counted_not_traced(self):
        _, engine, handles = build(queries=4, tuples=10)
        spans_before = len(engine.obs.spans)
        hops_before = sum(s.hops for s in engine.obs.spans)
        # Without churn every routed message has exactly one span: the
        # hop totals replay the transport counter.
        assert hops_before == engine.traffic.total_messages
        engine.crash_node(handles[0].owner)
        engine.run()
        dropped = engine.api.dropped_messages
        counted = engine.obs.registry.counter("dropped_deliveries").value
        # A crash may drop in-flight deliveries; each dropped delivery is
        # counted by the instrument instead of opening a span.
        assert counted <= dropped
        assert len(engine.obs.spans) >= spans_before
        assert_trace_integrity(engine)
        engine.close()
