"""Unit contract of the tracing layer: contexts, spans, sinks, export.

:class:`~repro.obs.context.Observability` is the propagation half of the
observability layer: contexts link parent to child across messages, the span
stack nests around operations and deliveries, and sinks bound what a run can
retain.  Everything here runs on a hand-held logical clock and hand-built
envelopes — no engine involved — through the methods deliveries run.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ObservabilityError
from repro.net.messages import Envelope, Message
from repro.obs.context import SPAN_COUNTS, Observability
from repro.obs.export import chrome_trace_events, write_chrome_trace
from repro.obs.trace import (
    DEFAULT_MAX_TRACES,
    JsonlSink,
    MemorySink,
    Span,
    TraceContext,
    load_spans,
)


class LogicalClock:
    def __init__(self):
        self.now = 0.0

    def advance(self, amount=1.0):
        self.now += amount

    def __call__(self):
        return self.now


def make_obs(**kwargs):
    clock = LogicalClock()
    return Observability(clock=clock, **kwargs), clock


def envelope(trace=None, destination="node-3", sent_at=0.0, delivered_at=1.0,
             **kwargs):
    return Envelope(
        Message(), "node-0", destination, sent_at=sent_at,
        delivered_at=delivered_at, trace=trace, **kwargs
    )


def deliver(obs, env, handler=lambda: None, pending=0):
    """What ``DHTMessagingService._deliver`` does around a handler."""
    span = obs.delivery_begin(env, pending)
    try:
        handler()
    finally:
        obs.delivery_end(span)
    return span


def active(obs):
    """The innermost active context: what a message posted now would be
    the child of (``None`` outside any span)."""
    context = obs.context_for(envelope())
    return None if context.parent_id is None else context


class TestContexts:
    def test_new_trace_roots_at_the_current_time(self):
        obs, clock = make_obs()
        clock.advance(5.0)
        assert obs.new_trace("pub-1") == TraceContext("pub-1", 1, None, 0)
        with obs.operation("publish", "pub-1", "node-0"):
            obs.record_answer_latency(7.0, 1)
        assert obs.histograms["answer_latency"].total == 2.0

    def test_reopening_a_trace_keeps_the_original_start(self):
        obs, clock = make_obs()
        obs.new_trace("pub-1")
        clock.advance()
        with obs.operation("publish", "pub-1", "node-0"):
            obs.record_answer_latency(3.0, 2)
        latency = obs.histograms["answer_latency"]
        assert (latency.count, latency.total) == (2, 6.0)

    def test_context_for_links_the_parent_and_increments_hop(self):
        obs, _ = make_obs()
        grandchildren = []
        with obs.operation("publish", "pub-1", "node-0"):
            child = obs.context_for(envelope())
            deliver(
                obs,
                envelope(child),
                lambda: grandchildren.append(obs.context_for(envelope())),
            )
        root = obs.spans[-1]
        assert root.parent_id is None and root.hop == 0
        assert (child.trace_id, child.parent_id, child.hop) == (
            "pub-1", root.span_id, 1
        )
        (grandchild,) = grandchildren
        assert (grandchild.parent_id, grandchild.hop) == (child.span_id, 2)
        assert len({root.span_id, child.span_id, grandchild.span_id}) == 3

    def test_a_message_posted_outside_any_span_roots_its_own_trace(self):
        obs, _ = make_obs()
        env = envelope()
        context = obs.context_for(env)
        assert context == TraceContext(f"msg-{env.message.message_id}", 1, None, 0)

    def test_trace_starts_are_bounded_and_evicted_oldest_first(self):
        obs, clock = make_obs()
        for index in range(DEFAULT_MAX_TRACES + 2):
            obs.new_trace(f"t{index}")
        assert len(obs._trace_starts) == DEFAULT_MAX_TRACES
        clock.advance(4.0)
        # Latency against an evicted root is not recorded; a kept one is.
        for trace_id in ("t0", "t1", "t2", f"t{DEFAULT_MAX_TRACES + 1}"):
            deliver(
                obs,
                envelope(TraceContext(trace_id, 0, None, 0)),
                lambda: obs.record_answer_latency(clock(), 1),
            )
        assert obs.histograms["answer_latency"].count == 2


class TestSpans:
    def test_operation_records_its_root_span_on_exit(self):
        obs, clock = make_obs()
        with obs.operation("publish", "pub-1", "node-0"):
            assert active(obs) is not None
            clock.advance(3.0)
        assert active(obs) is None
        (span,) = obs.spans
        assert (span.name, span.node, span.parent_id, span.hop) == (
            "publish", "node-0", None, 0
        )
        assert span.duration == 3.0
        assert span.sent_at == span.start == 0.0
        assert span.wall_us == 0.0  # deterministic runtime: no wall clock

    def test_operation_records_its_root_span_when_it_raises(self):
        obs, _ = make_obs()
        with pytest.raises(RuntimeError):
            with obs.operation("publish", "pub-1", "node-0"):
                raise RuntimeError("handler blew up")
        assert [span.name for span in obs.spans] == ["publish"]
        assert active(obs) is None

    def test_a_delivery_span_describes_its_envelope(self):
        obs, clock = make_obs()
        context = TraceContext("pub-1", 9, 4, 2)
        env = envelope(context, sent_at=1.0, delivered_at=3.0, hops=2, weight=3,
                       direct=True, target_identifier=12)
        clock.advance(50.0)  # a delivery never reads the clock
        span = deliver(obs, env, pending=5)
        assert obs.spans == [span]
        assert (span.trace_id, span.span_id, span.parent_id, span.hop) == (
            "pub-1", 9, 4, 2
        )
        assert (span.name, span.node) == ("Message", "node-3")
        assert (span.start, span.end, span.sent_at) == (3.0, 3.0, 1.0)
        assert (span.hops, span.weight, span.arc_direct) == (6, 3, 1)
        assert obs.histograms["hop_delay"].total == 2.0
        assert obs.histograms["inbox_depth"].total == 5.0

    def test_a_delivery_without_a_context_roots_its_own_trace(self):
        obs, clock = make_obs()
        clock.advance(2.0)
        env = envelope(delivered_at=6.0)
        span = deliver(
            obs, env, lambda: obs.record_answer_latency(env.delivered_at, 1)
        )
        assert (span.trace_id, span.parent_id, span.hop) == (
            f"msg-{env.message.message_id}", None, 0
        )
        # The fresh trace starts now, so the answer latency is measured from it.
        assert obs.histograms["answer_latency"].total == 4.0

    def test_an_answer_to_an_address_is_not_an_arc_delivery(self):
        obs, _ = make_obs()
        span = deliver(obs, envelope(TraceContext("t", 1, None, 0), direct=True))
        assert span.arc_direct == 0

    def test_nested_operations_and_deliveries_restore_the_outer_context(self):
        obs, _ = make_obs()
        with obs.operation("publish", "pub-1", "node-0"):
            outer = active(obs)
            inner = obs.context_for(envelope())

            def handler():
                assert active(obs).parent_id == inner.span_id
                with obs.operation("submit", "sub-1", "node-3"):
                    assert active(obs).trace_id == "sub-1"
                assert active(obs).parent_id == inner.span_id

            deliver(obs, envelope(inner), handler)
            assert active(obs).parent_id == outer.parent_id
        assert active(obs) is None
        # Inner spans finish (and are recorded) first.
        assert [s.name for s in obs.spans] == ["submit", "Message", "publish"]

    def test_a_raising_handler_still_closes_its_delivery_span(self):
        obs, _ = make_obs()

        def handler():
            raise RuntimeError("handler blew up")

        with pytest.raises(RuntimeError):
            deliver(obs, envelope(TraceContext("t", 1, None, 0)), handler)
        assert len(obs.spans) == 1
        assert active(obs) is None

    def test_wall_clock_records_service_time(self):
        obs, _ = make_obs(wall_clock=True)
        with obs.operation("publish", "pub-1", "node-0"):
            pass
        deliver(obs, envelope(TraceContext("t", 9, None, 0)))
        assert all(span.wall_us > 0.0 for span in obs.spans)
        # Only deliveries are handler service time.
        assert obs.histograms["handler_service_time_us"].count == 1


class TestHistogramHooks:
    def test_answer_latency_outside_any_span_is_not_recorded(self):
        obs, _ = make_obs()
        obs.new_trace("pub-1")
        obs.record_answer_latency(3.0, 1)
        assert obs.histograms["answer_latency"].count == 0

    def test_store_probes_land_in_their_histogram(self):
        obs, _ = make_obs()
        for size in (0, 3, 5):
            obs.record_store_probe(size)
        probe = obs.histograms["store_probe_batch"]
        assert (probe.count, probe.total, probe.max) == (3, 8.0, 5.0)
        assert all(
            h.count == 0
            for name, h in obs.histograms.items()
            if name != "store_probe_batch"
        )


class TestSpanCounts:
    def test_counts_land_on_the_open_span_and_are_cleared_at_close(self):
        obs, _ = make_obs()

        def handler():
            obs.add_to_span("ric_joined", 2)
            obs.add_to_span("ric_joined")
            obs.add_to_span("arc_misdirected")

        span = deliver(obs, envelope(TraceContext("t", 1, None, 0)), handler)
        assert (span.ric_joined, span.ric_spared, span.arc_misdirected) == (3, 0, 1)
        assert obs._open == {}
        with obs.operation("submit", "sub-1", "node-0"):
            obs.add_to_span("ric_spared", 4)
        assert obs.spans[-1].ric_spared == 4
        assert obs.spans[-1].ric_joined == 0
        assert obs._open == {}

    def test_only_the_declared_span_counts_are_accepted(self):
        obs, _ = make_obs()
        with obs.operation("submit", "sub-1", "node-0"):
            for attribute in SPAN_COUNTS:
                obs.add_to_span(attribute)
            assert len(obs._open) == len(SPAN_COUNTS) == 3
            with pytest.raises(ObservabilityError, match="no span count"):
                obs.add_to_span("key_load")
            assert len(obs._open) == 3
        assert obs._open == {}

    def test_outside_any_span_a_count_goes_nowhere(self):
        obs, _ = make_obs()
        obs.add_to_span("ric_spared")
        assert obs._open == {}


class TestSinks:
    def test_memory_sink_bounds_and_counts_drops(self):
        obs, _ = make_obs(max_spans=2)
        for index in range(4):
            with obs.operation("op", f"t{index}", "n"):
                pass
        sink = obs.sink
        assert len(sink.spans) == 2
        assert sink.recorded == 2
        assert sink.dropped == 2

    def test_max_spans_must_be_positive(self):
        with pytest.raises(ObservabilityError):
            MemorySink(max_spans=0)

    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs, _ = make_obs(trace_path=str(path))
        assert isinstance(obs.sink, JsonlSink)
        with obs.operation("publish", "pub-1", "node-0"):
            pass
        obs.close()
        loaded = load_spans(str(path))
        assert len(loaded) == 1
        assert loaded[0].trace_id == "pub-1"
        assert loaded[0].name == "publish"

    def test_streamed_spans_are_read_back_from_the_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs, _ = make_obs(trace_path=str(path))
        with obs.operation("publish", "pub-1", "node-0"):
            pass
        with pytest.raises(ObservabilityError, match="load_spans"):
            obs.spans
        with pytest.raises(ObservabilityError, match="copy that file"):
            obs.write_trace(str(tmp_path / "dump.jsonl"))
        obs.close()
        obs.close()  # idempotent
        assert [s.name for s in load_spans(str(path))] == ["publish"]
        assert not (tmp_path / "dump.jsonl").exists()

    def test_closed_jsonl_sink_rejects_spans(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "trace.jsonl"))
        sink.close()
        sink.close()  # idempotent
        with pytest.raises(ObservabilityError, match="closed"):
            sink.record(
                Span(
                    trace_id="t",
                    span_id=1,
                    parent_id=None,
                    name="op",
                    node="n",
                    start=0.0,
                    end=0.0,
                    sent_at=0.0,
                    hops=0,
                    hop=0,
                )
            )

    def test_memory_sink_write_jsonl_matches_load_spans(self, tmp_path):
        obs, _ = make_obs()
        with obs.operation("publish", "pub-1", "node-0"):
            pass
        path = tmp_path / "dump.jsonl"
        assert obs.write_trace(str(path)) == 1
        assert [s.to_dict() for s in load_spans(str(path))] == [
            s.to_dict() for s in obs.spans
        ]

    def test_load_spans_rejects_malformed_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"trace_id": "t"}\n')
        with pytest.raises(ObservabilityError, match="malformed trace line"):
            load_spans(str(path))

    def test_span_dict_roundtrip(self):
        span = Span(
            trace_id="t",
            span_id=7,
            parent_id=3,
            name="op",
            node="n",
            start=1.0,
            end=2.0,
            sent_at=0.5,
            hops=2,
            hop=1,
            wall_us=12.5,
        )
        assert Span.from_dict(span.to_dict()).to_dict() == span.to_dict()


class TestChromeExport:
    def _spans(self):
        return [
            Span(
                trace_id="pub-1",
                span_id=1,
                parent_id=None,
                name="publish",
                node="node-0",
                start=0.0,
                end=2.0,
                sent_at=0.0,
                hops=0,
                hop=0,
            ),
            Span(
                trace_id="pub-1",
                span_id=2,
                parent_id=1,
                name="IndexTuple",
                node="node-3",
                start=1.0,
                end=1.0,
                sent_at=0.0,
                hops=2,
                hop=1,
            ),
        ]

    def test_events_carry_nodes_as_threads_and_span_metadata(self):
        events = chrome_trace_events(self._spans())
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["args"]["name"] for e in meta} == {"node-0", "node-3"}
        assert len(complete) == 2
        by_name = {e["name"]: e for e in complete}
        assert by_name["IndexTuple"]["args"]["parent_id"] == 1
        # Zero-duration spans stay clickable.
        assert by_name["IndexTuple"]["dur"] == 1.0

    def test_write_chrome_trace_emits_trace_events_object(self, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace(self._spans(), str(path))
        payload = json.loads(path.read_text())
        assert count == len(payload["traceEvents"])
        assert {e["ph"] for e in payload["traceEvents"]} == {"M", "X"}
