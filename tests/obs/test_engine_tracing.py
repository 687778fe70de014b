"""End-to-end tracing through the engine: the ISSUE acceptance criteria.

A query-flood run with ``observability="on"`` must produce a trace that
*replays*: every span's parent resolves inside its trace, the hop counts
reconstruct exactly the message volume ``TrafficStats`` counted at the
transport, and the folded percentiles in ``metrics_summary`` are identical
across sim reruns.  Observability must never change behaviour: the answer
bag matches the off-mode run bit for bit.
"""

from __future__ import annotations

import pytest

from repro.core.config import RJoinConfig
from repro.core.engine import RJoinEngine
from repro.errors import ConfigurationError, EngineError
from repro.obs.trace import load_spans
from repro.workload.generator import WorkloadGenerator, WorkloadSpec

PERCENTILE_SUFFIXES = ("_p50", "_p95", "_p99")


def run_flood(observability="on", num_queries=8, num_tuples=30, **overrides):
    """A query-flood run; returns (engine, answer bag, summary)."""
    spec = WorkloadSpec(
        num_relations=4,
        attributes_per_relation=3,
        value_domain=4,
        join_arity=3,
        seed=901,
    )
    generator = WorkloadGenerator(spec)
    params = dict(num_nodes=12, seed=90, observability=observability)
    params.update(overrides)
    engine = RJoinEngine(RJoinConfig(**params))
    engine.register_catalog(generator.catalog)
    handles = [engine.submit(q) for q in generator.generate_queries(num_queries)]
    for generated in generator.generate_tuples(num_tuples):
        engine.publish(generated.relation, generated.values)
    bag = sorted(repr(value) for handle in handles for value in handle.values())
    return engine, bag, engine.metrics_summary()


def percentiles(summary):
    """The 15 folded histogram percentile entries of one metrics summary."""
    keys = [key for key in summary if key.endswith(PERCENTILE_SUFFIXES)]
    return {key: summary[key] for key in keys}


class TestTraceReplay:
    def test_hop_counts_reconstruct_traffic_stats(self):
        engine, _, _ = run_flood()
        spans = engine.obs.spans
        assert spans, "observability=on recorded no spans"
        # Every routed message opened exactly one span carrying its hop
        # count, so the spans replay the transport-level traffic total.
        assert sum(span.hops for span in spans) == engine.traffic.total_messages
        engine.close()

    def test_coalesced_answer_spans_account_for_every_answer(self):
        engine, _, _ = run_flood()
        answers = [s for s in engine.obs.spans if s.name == "AnswerMessage"]
        assert any(span.weight > 1 for span in answers), "no coalesced envelope"
        for span in answers:
            # One hop (or none, producer == owner), charged once per answer.
            assert span.hops in (0, span.weight)
        others = [s for s in engine.obs.spans if s.name != "AnswerMessage"]
        assert all(span.weight == 1 for span in others)
        delivered = engine.total_answers
        assert sum(span.weight for span in answers) == delivered
        assert engine.obs.registry.histogram("answer_latency").count == delivered
        engine.close()

    def test_every_parent_resolves_no_orphan_spans(self):
        engine, _, _ = run_flood()
        by_trace = {}
        for span in engine.obs.spans:
            by_trace.setdefault(span.trace_id, set()).add(span.span_id)
        for span in engine.obs.spans:
            if span.parent_id is not None:
                assert span.parent_id in by_trace[span.trace_id], (
                    f"orphan span {span.span_id} in trace {span.trace_id}"
                )
        engine.close()

    def test_rewriting_chain_depth_increases_hop_by_hop(self):
        engine, _, _ = run_flood()
        spans = {span.span_id: span for span in engine.obs.spans}
        for span in spans.values():
            if span.parent_id is not None and span.parent_id in spans:
                parent = spans[span.parent_id]
                assert span.hop == parent.hop + 1
                assert span.trace_id == parent.trace_id
                assert span.sent_at >= parent.start
        engine.close()

    def test_operations_root_their_traces(self):
        engine, _, _ = run_flood()
        roots = [s for s in engine.obs.spans if s.parent_id is None]
        root_names = {span.name for span in roots}
        assert "publish" in root_names
        assert "submit" in root_names
        for root in roots:
            assert root.hop == 0
            assert root.hops == 0
        engine.close()

    def test_trace_survives_jsonl_roundtrip(self, tmp_path):
        engine, _, _ = run_flood()
        path = tmp_path / "flood.jsonl"
        count = engine.write_trace(str(path))
        loaded = load_spans(str(path))
        assert count == len(loaded) == len(engine.obs.spans)
        assert sum(s.hops for s in loaded) == engine.traffic.total_messages
        engine.close()


class TestDeterminismAndNeutrality:
    def test_percentiles_identical_across_sim_reruns(self):
        _, bag_a, summary_a = run_flood()
        _, bag_b, summary_b = run_flood()
        assert bag_a == bag_b
        pct_a = percentiles(summary_a)
        assert pct_a == percentiles(summary_b)
        assert any(value > 0.0 for value in pct_a.values())

    def test_observability_never_changes_the_answer_bag(self):
        _, bag_on, _ = run_flood("on")
        _, bag_off, _ = run_flood("off")
        assert bag_on == bag_off

    def test_off_mode_keeps_percentile_keys_as_zero(self):
        engine, _, summary = run_flood("off")
        assert engine.obs is None
        pct = percentiles(summary)
        assert len(pct) == 15
        assert set(pct.values()) == {0.0}
        engine.close()


class TestConfigSurface:
    def test_trace_path_requires_observability_on(self, tmp_path):
        with pytest.raises(ConfigurationError):
            RJoinConfig(num_nodes=8, trace_path=str(tmp_path / "t.jsonl"))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            RJoinConfig(num_nodes=8, observability="loud")

    def test_write_trace_when_off_is_an_engine_error(self):
        engine, _, _ = run_flood("off", num_queries=1, num_tuples=2)
        with pytest.raises(EngineError):
            engine.write_trace("/tmp/never-written.jsonl")
        engine.close()

    def test_trace_path_streams_spans_to_disk(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        engine, _, _ = run_flood(
            "on", num_queries=2, num_tuples=6, trace_path=str(path)
        )
        engine.close()
        spans = load_spans(str(path))
        assert spans
        assert sum(s.hops for s in spans) == engine.traffic.total_messages
