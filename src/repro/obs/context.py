"""The :class:`Observability` facade the engine and messaging layer share.

One object owns the whole tracing layer: the span stack, context
allocation, the trace-start table, the span sink and the declared
histograms.  Each question has one instrument — counts live in the engine's
``ChurnStats`` and the per-node counter fields, per-delivery attribution on
the spans, distributions in the five histograms of
:data:`~repro.obs.instruments.HISTOGRAMS`.  The facade is ``Optional``
everywhere it is threaded through — ``RJoinConfig.observability="off"``
leaves it ``None`` and every call site guards with one ``is not None``
check, so the off path costs a single pointer comparison.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional

from repro.errors import ObservabilityError
from repro.obs.instruments import HISTOGRAMS, Histogram
from repro.obs.trace import (
    DEFAULT_MAX_SPANS,
    DEFAULT_MAX_TRACES,
    JsonlSink,
    MemorySink,
    Span,
    SpanSink,
    TraceContext,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.messages import Envelope

#: The span attributes a handler may add a count to (:meth:`add_to_span`):
#: what it did that is no delivery of its own.
SPAN_COUNTS = ("ric_joined", "ric_spared", "arc_misdirected")


class Observability:
    """Tracing + histograms for one engine instance.

    The span stack holds the active contexts: :meth:`operation` pushes a
    root context around each engine operation, :meth:`delivery_begin` the
    carried context around each delivery, and every message posted while a
    context is active becomes its child (:meth:`context_for`).  Handler
    execution is synchronous on both runtimes, so the stack nests correctly
    even under the asyncio actor scheduler (tasks only interleave at await
    points, never mid-handler).

    Bounds, each held by a test in ``tests/obs/test_trace.py``:

    * spans retained or streamed ≤ ``max_spans``; the overflow is counted in
      ``sink.dropped`` (``TestSinks``);
    * trace start times ≤ :data:`~repro.obs.trace.DEFAULT_MAX_TRACES`, the
      oldest evicted first (``TestContexts``);
    * the open span's counts hold at most the 3 names of
      :data:`SPAN_COUNTS` and are cleared at every span close
      (``TestSpanCounts``).

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
        self._clock = clock
        self._wall = wall_clock
        #: The declared histograms by name (:data:`HISTOGRAMS`).
        self.histograms: Dict[str, Histogram] = {
            spec.name: Histogram(spec) for spec in HISTOGRAMS
        }
        # The per-delivery hooks run tens of thousands of times per second;
        # resolving their histograms once keeps the hot path to attribute
        # loads instead of dictionary lookups.
        self._hop_delay = self.histograms["hop_delay"]
        self._inbox_depth = self.histograms["inbox_depth"]
        self._service_time = self.histograms["handler_service_time_us"]
        self._answer_latency = self.histograms["answer_latency"]
        self._store_probe = self.histograms["store_probe_batch"]
        self._sink_record = self.sink.record
        self._span_ids = itertools.count(1)
        self._stack: List[TraceContext] = []
        self._wall_starts: List[float] = []
        #: Logical start time per trace id, insertion-ordered for eviction.
        self._trace_starts: Dict[str, float] = {}
        #: What the handler of the span now open counted, by span attribute.
        self._open: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # contexts
    # ------------------------------------------------------------------
    def new_trace(self, trace_id: str) -> TraceContext:
        """Open a fresh trace rooted at the current logical time.

        Reopening a known trace keeps its original start.  Past
        :data:`DEFAULT_MAX_TRACES` starts the oldest is evicted (a dict keeps
        insertion order); latency against an evicted root is not recorded.
        """
        starts = self._trace_starts
        if trace_id not in starts:
            if len(starts) >= DEFAULT_MAX_TRACES:
                del starts[next(iter(starts))]
            starts[trace_id] = self._clock()
        return TraceContext(trace_id, next(self._span_ids), None, 0)

    def context_for(self, envelope: "Envelope") -> TraceContext:
        """The trace context a freshly posted envelope should carry.

        Inside an active span the message is its child, one hop deeper;
        outside (engine housekeeping, membership repair) it roots a fresh
        single-message trace so no delivery is ever unattributed.
        """
        stack = self._stack
        if not stack:
            return self.new_trace(f"msg-{envelope.message.message_id}")
        parent = stack[-1]
        # Positional construction: keyword arguments route a NamedTuple
        # through Python-level argument matching, and this allocates once
        # per posted message.
        return TraceContext(
            parent.trace_id, next(self._span_ids), parent.span_id, parent.hop + 1
        )

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    @contextmanager
    def operation(self, name: str, trace_id: str, node: str) -> Iterator[None]:
        """Open a root span around one engine operation (publish/submit/...).

        Every message sent inside the block joins trace ``trace_id``.  The
        span is recorded when the block exits, also on exception — a failing
        operation still leaves a complete trace.
        """
        context = self.new_trace(trace_id)
        start = self._clock()
        span = Span(
            trace_id=context.trace_id,
            span_id=context.span_id,
            parent_id=None,
            name=name,
            node=node,
            start=start,
            end=start,
            sent_at=start,
            hops=0,
            hop=0,
        )
        self._stack.append(context)
        if self._wall:
            self._wall_starts.append(perf_counter())
        try:
            yield
        finally:
            if self._open:
                self._close_open(span)
            self._stack.pop()
            if self._wall:
                span.wall_us = (perf_counter() - self._wall_starts.pop()) * 1e6
            span.end = self._clock()
            self._sink_record(span)

    def delivery_begin(self, envelope: "Envelope", pending: int) -> Span:
        """Open the per-delivery span and record the transit histograms.

        Explicit begin/end (rather than a context manager) because this
        runs once per message delivery — the generator frames of a
        ``@contextmanager`` pair were the single largest ``on``-mode cost
        in the overhead benchmark.  The logical clock is never read:
        handlers are synchronous on both runtimes, so the span starts *and*
        ends at ``envelope.delivered_at``.  The caller owns the
        ``try``/``finally`` that guarantees :meth:`delivery_end`.
        """
        context = envelope.trace
        if context is None:
            # Stamped deliveries are the invariant while observability is
            # on; tolerate foreign envelopes (tests post hand-built ones).
            context = self.new_trace(f"msg-{envelope.message.message_id}")
        sent_at = envelope.sent_at
        delivered = envelope.delivered_at
        self._hop_delay.record(delivered - sent_at)
        self._inbox_depth.record(float(pending))
        span = Span(
            trace_id=context.trace_id,
            span_id=context.span_id,
            parent_id=context.parent_id,
            name=envelope.kind,
            node=envelope.destination,
            start=delivered,
            end=delivered,
            sent_at=sent_at,
            hops=envelope.hops * envelope.weight,
            hop=context.hop,
            weight=envelope.weight,
            # Sent in one hop to the presumed owner of an identifier (an
            # answer names none: its destination is an address, not an owner).
            arc_direct=(
                1 if envelope.direct and envelope.target_identifier is not None
                else 0
            ),
        )
        self._stack.append(context)
        if self._wall:
            self._wall_starts.append(perf_counter())
        return span

    def delivery_end(self, span: Span) -> None:
        """Close a span opened by :meth:`delivery_begin` and record it."""
        self._stack.pop()
        if self._open:
            self._close_open(span)
        if self._wall:
            wall = (perf_counter() - self._wall_starts.pop()) * 1e6
            span.wall_us = wall
            self._service_time.record(wall)
        self._sink_record(span)

    def add_to_span(self, attribute: str, count: int = 1) -> None:
        """Add ``count`` to one of :data:`SPAN_COUNTS` of the open span.

        For what a handler did that is no delivery of its own: a RIC
        question joined to a chain in flight or spared, a one-hop delivery
        passed on from a stale arc.  The span that is open (the delivery
        whose handler decided, or the submitting operation) carries it.
        """
        if attribute not in SPAN_COUNTS:
            raise ObservabilityError(
                f"{attribute!r} is no span count (one of {SPAN_COUNTS})"
            )
        if self._stack:
            self._open[attribute] = self._open.get(attribute, 0) + count

    def _close_open(self, span: Span) -> None:
        """Move what was counted for the open span's handler onto the span."""
        for attribute, count in self._open.items():
            setattr(span, attribute, count)
        self._open.clear()

    # ------------------------------------------------------------------
    # histograms
    # ------------------------------------------------------------------
    def record_answer_latency(self, delivered_at: float, answers: int) -> None:
        """Record publish/submit -> answer latency for the active trace.

        Runs once per delivered answer envelope, whose ``answers`` answers
        share the delivery time and the trace: one observation each.
        """
        stack = self._stack
        if not stack:
            return
        start = self._trace_starts.get(stack[-1].trace_id)
        if start is None:
            return
        self._answer_latency.record(delivered_at - start, answers)

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
