"""The :class:`Observability` facade the engine and messaging layer share.

One object bundles the tracer (span propagation) and the metrics registry
(histograms/counters/gauges) and exposes exactly the hooks the hot paths
need.  The facade is ``Optional`` everywhere it is threaded through —
``RJoinConfig.observability="off"`` leaves it ``None`` and every call site
guards with one ``is not None`` check, so the off path costs a single
pointer comparison (the established ``NodeContext`` callback idiom).
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional

from repro.errors import ObservabilityError
from repro.obs.instruments import MetricsRegistry
from repro.obs.trace import (
    DEFAULT_MAX_SPANS,
    JsonlSink,
    MemorySink,
    Span,
    SpanSink,
    TraceContext,
    Tracer,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.messages import Envelope


class Observability:
    """Tracing + metrics for one engine instance.

    Parameters
    ----------
    clock:
        The engine's logical clock (``transport.now``).
    wall_clock:
        Whether spans additionally record wall-clock service time
        (enabled on the asyncio runtime, disabled on the deterministic
        kernel so traces stay byte-identical across reruns).
    trace_path:
        Stream spans to this JSONL file as they finish; ``None`` retains
        them in memory (readable via :attr:`spans`, dumpable via
        :meth:`write_trace`).
    max_spans:
        Bound on retained/streamed spans (overflow is counted, not kept).
    """

    def __init__(
        self,
        clock: Callable[[], float],
        wall_clock: bool = False,
        trace_path: Optional[str] = None,
        max_spans: int = DEFAULT_MAX_SPANS,
    ) -> None:
        self.sink: SpanSink = (
            MemorySink(max_spans)
            if trace_path is None
            else JsonlSink(trace_path, max_spans)
        )
        self.trace_path = trace_path
        self.tracer = Tracer(self.sink, clock=clock, wall_clock=wall_clock)
        self.registry = MetricsRegistry()
        # The per-delivery hooks run tens of thousands of times per second;
        # resolving their instruments once keeps the hot path to attribute
        # loads instead of registry dictionary lookups.
        self._hop_delay = self.registry.histogram("hop_delay")
        self._inbox_depth = self.registry.histogram("inbox_depth")
        self._service_time = self.registry.histogram("handler_service_time_us")
        self._answer_latency = self.registry.histogram("answer_latency")
        self._store_probe = self.registry.histogram("store_probe_batch")
        self._pending_events = self.registry.gauge("pending_events")
        self._node_deliveries = self.registry.counter("node_deliveries")
        self._deliveries_by_kind = self.registry.counter("deliveries_by_kind")
        self._key_load = self.registry.counter("key_load")
        self._ric_chain = self.registry.counter("ric_chain")
        # The routing cache, by message kind: deliveries made in one hop on a
        # cached arc, and those among them that arrived on a stale one.
        self._arc_direct = self.registry.counter("arc_direct")
        self._arc_misdirected = self.registry.counter("arc_misdirected")
        #: What the handler of the span now open did that is no delivery of
        #: its own, by span attribute (:meth:`record_ric`,
        #: :meth:`record_misdirected`).
        self._open: Dict[str, int] = {}
        self._dropped = self.registry.counter("dropped_deliveries")
        # The delivery pair below inlines ``Tracer.begin_span``/``end_span``
        # (see its docstring), so it shares the tracer's active-context
        # stack and wall-clock bookkeeping directly.
        self._stack: List[TraceContext] = self.tracer._stack
        self._wall_starts: List[float] = self.tracer._wall_starts
        self._wall = wall_clock
        self._sink_record = self.sink.record
        self._span_ids = self.tracer._span_ids
        self._trace_starts = self.tracer._trace_starts

    # ------------------------------------------------------------------
    # engine-side hooks
    # ------------------------------------------------------------------
    @contextmanager
    def operation(self, name: str, trace_id: str, node: str) -> Iterator[None]:
        """Open a root span around one engine operation (publish/submit/...).

        Every message sent inside the block joins trace ``trace_id``.
        """
        context = self.tracer.new_trace(trace_id)
        with self.tracer.span(context, name=name, node=node) as span:
            try:
                yield
            finally:
                if self._open:
                    self._close_open(span)

    def record_answer_latency(self, delivered_at: float, answers: int) -> None:
        """Record publish/submit -> answer latency for the active trace.

        Runs once per delivered answer envelope, whose ``answers`` answers
        share the delivery time and the trace: one observation each.  Reads
        the tracer's active-context stack and trace-start table directly
        (pre-bound in ``__init__``).
        """
        stack = self._stack
        if not stack:
            return
        start = self._trace_starts.get(stack[-1].trace_id)
        if start is None:
            return
        self._answer_latency.record(delivered_at - start, answers)

    # ------------------------------------------------------------------
    # messaging-side hooks
    # ------------------------------------------------------------------
    def context_for(self, envelope: "Envelope") -> TraceContext:
        """The trace context a freshly posted envelope should carry.

        Inside an active span the message is its child; outside (engine
        housekeeping, membership repair) it roots a fresh single-message
        trace so no delivery is ever unattributed.  Runs once per posted
        message, so the child derivation is inlined against the pre-bound
        tracer internals instead of going through ``Tracer.child``.
        """
        stack = self._stack
        if not stack:
            return self.tracer.new_trace(f"msg-{envelope.message.message_id}")
        parent = stack[-1]
        return TraceContext(
            parent.trace_id, next(self._span_ids), parent.span_id, parent.hop + 1
        )

    def delivery_begin(self, envelope: "Envelope", pending: int) -> Span:
        """Open the per-delivery span and record the transit instruments.

        Explicit begin/end (rather than a context manager) because this
        runs once per message delivery — the generator frames of a
        ``@contextmanager`` pair were the single largest ``on``-mode cost
        in the overhead benchmark.  The span open/close is inlined here
        (instead of calling ``Tracer.begin_span``/``end_span``) for the
        same reason, and the logical clock is never read: handlers are
        synchronous on both runtimes, so the span starts *and* ends at
        ``envelope.delivered_at``.  The caller owns the ``try``/``finally``
        that guarantees :meth:`delivery_end`.
        """
        context = envelope.trace
        if context is None:
            # Stamped deliveries are the invariant while observability is
            # on; tolerate foreign envelopes (tests post hand-built ones).
            context = self.tracer.new_trace(f"msg-{envelope.message.message_id}")
        kind = envelope.kind
        node = envelope.destination
        sent_at = envelope.sent_at
        delivered = envelope.delivered_at
        self._hop_delay.record(delivered - sent_at)
        self._inbox_depth.record(float(pending))
        self._pending_events.set(float(pending))
        # Per-node / per-kind load counters, folded in here (rather than a
        # separate node-side hook) so one facade call covers the delivery.
        self._node_deliveries.inc(node)
        self._deliveries_by_kind.inc(kind)
        # Sent in one hop to the presumed owner of an identifier (an answer
        # names none: its destination is an address, not an owner).
        arc_direct = 0
        if envelope.direct and envelope.target_identifier is not None:
            arc_direct = 1
            self._arc_direct.inc(kind)
        span = Span(
            trace_id=context.trace_id,
            span_id=context.span_id,
            parent_id=context.parent_id,
            name=kind,
            node=node,
            start=delivered,
            end=delivered,
            sent_at=sent_at,
            hops=envelope.hops * envelope.weight,
            hop=context.hop,
            weight=envelope.weight,
            arc_direct=arc_direct,
        )
        self._stack.append(context)
        if self._wall:
            self._wall_starts.append(perf_counter())
        return span

    def delivery_end(self, span: Span) -> None:
        """Close a span opened by :meth:`delivery_begin` (inlined pair)."""
        self._stack.pop()
        if self._open:
            self._close_open(span)
        if self._wall:
            wall = (perf_counter() - self._wall_starts.pop()) * 1e6
            span.wall_us = wall
            self._service_time.record(wall)
        self._sink_record(span)

    def record_dropped(self, envelope: "Envelope") -> None:
        """Count a delivery the network dropped (no handler registered)."""
        self._dropped.inc(envelope.kind)

    # ------------------------------------------------------------------
    # node-side hooks (via NodeContext.obs)
    # ------------------------------------------------------------------
    def record_key_load(self, key_text: str) -> None:
        """Per-indexing-key arrival counter (hot-key telemetry)."""
        self._key_load.inc(key_text)

    def record_ric(self, phase: str, count: int = 1) -> None:
        """RIC path telemetry: ``request`` / ``reply`` deliveries, ``joined``
        and ``spared`` questions.

        A *joined* question is an unknown candidate key that was not sent
        because a chain of the same node was already asking it; a *spared*
        one was not sent because no answer could have changed the choice.
        Neither is a delivery of its own, so the span that is open (the
        delivery whose handler decided, or the submitting operation) carries
        the count.
        """
        self._ric_chain.inc(phase, count)
        if phase in ("joined", "spared") and self._stack:
            attribute = "ric_" + phase
            self._open[attribute] = self._open.get(attribute, 0) + count

    def record_misdirected(self, kind: str) -> None:
        """The delivery being handled, a ``kind`` message sent in one hop,
        reached a node that does not own its identifier and was passed on."""
        self._arc_misdirected.inc(kind)
        if self._stack:
            self._open["arc_misdirected"] = 1

    def _close_open(self, span: Span) -> None:
        """Move what was counted for the open span's handler onto the span."""
        for attribute, count in self._open.items():
            setattr(span, attribute, count)
        self._open.clear()

    def record_store_probe(self, result_size: int) -> None:
        """Result size of one set-at-a-time store batch probe."""
        self._store_probe.record(float(result_size))

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    @property
    def spans(self) -> List[Span]:
        """The retained spans (memory sink only)."""
        if isinstance(self.sink, MemorySink):
            return self.sink.spans
        raise ObservabilityError(
            "spans are streamed to "
            f"{self.trace_path!r}; read them back with repro.obs.load_spans"
        )

    def write_trace(self, path: str) -> int:
        """Dump the retained spans as JSONL; returns the span count."""
        if isinstance(self.sink, MemorySink):
            return self.sink.write_jsonl(path)
        raise ObservabilityError(
            "spans already stream to "
            f"{self.trace_path!r}; copy that file instead of re-dumping"
        )

    def close(self) -> None:
        """Flush and release the span sink (idempotent)."""
        self.sink.flush()
        self.sink.close()
