"""Trace records: contexts, spans and the sinks that bound them.

One *trace* follows everything a single engine operation (a tuple
publication, a query submission, a retraction) causes across the network:
the originating operation opens a **root span**, every message the
operation (transitively) sends carries a :class:`TraceContext` on its
:class:`~repro.net.messages.Envelope`, and every delivery opens a child
span on the receiving node.  The parent/child links reconstruct the full
rewriting chain of the paper's Procedure 2 — which node re-indexed the
query, where the matching tuple triggered it, and which hop produced the
answer.

Timestamps are the *logical* transport clock, so a trace taken on the
``sim`` runtime is bit-identical across reruns; on the ``asyncio`` runtime
each span additionally records wall-clock service time (``wall_us``).  Span
volume is bounded by the sink (drops are counted, not silently lost).  The
span stack that opens and closes spans is
:class:`~repro.obs.context.Observability`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional, TextIO

from repro.errors import ObservabilityError

#: Valid values of ``RJoinConfig.observability``.
OBSERVABILITY_MODES = ("off", "on")

#: Default bound on the number of spans a sink retains / writes.
DEFAULT_MAX_SPANS = 100_000

#: Bound on the number of trace start times observability remembers
#: (oldest evicted first; latency for an evicted trace is simply not
#: recorded).
DEFAULT_MAX_TRACES = 65_536


class TraceContext(NamedTuple):
    """The propagation state carried by one in-flight message.

    ``trace_id`` names the originating operation, ``span_id`` is the span
    the delivery of this message will open, ``parent_id`` is the span that
    sent it (``None`` for a root) and ``hop`` counts indexing hops from the
    root.  A named tuple rather than a frozen dataclass: one context is
    allocated per posted message, and tuple construction is several times
    cheaper than the ``object.__setattr__`` dance a frozen dataclass pays.
    """

    trace_id: str
    span_id: int
    parent_id: Optional[int]
    hop: int


@dataclass(slots=True)
class Span:
    """One recorded unit of work: a message delivery or a root operation.

    Slotted: one span is allocated (and ten attributes set) per delivery,
    and the memory sink retains up to 100k of them — slots cut both the
    per-instance footprint and the attribute-write cost on the hot path.
    """

    trace_id: str
    span_id: int
    parent_id: Optional[int]
    name: str
    node: str
    start: float
    end: float
    #: Logical time the message was handed to the transport (equals
    #: ``start`` for root spans).
    sent_at: float
    #: Transmissions charged for the delivered envelope: the routing hops it
    #: travelled times the logical messages it carried (0 for root spans).
    hops: int
    #: Depth of this span in the trace tree (indexing hops from the root).
    hop: int
    #: Wall-clock handler service time in microseconds (0.0 on the
    #: deterministic runtime, where wall time would break reproducibility).
    wall_us: float = 0.0
    #: Logical messages the delivered envelope carried (the answers of a
    #: coalesced answer envelope; 1 for everything else).
    weight: int = 1
    #: RIC questions this span's handler did not send because a chain of its
    #: node was already asking the key (they are no deliveries of their own).
    ric_joined: int = 0
    #: ...and those it did not ask because no answer could have changed the
    #: indexing decision they were for.
    ric_spared: int = 0
    #: The routing cache: whether the delivered message was sent in one hop
    #: to the node its sender took for the owner of its identifier, and
    #: whether that node was not (a stale arc) and passed it on.
    arc_direct: int = 0
    arc_misdirected: int = 0

    @property
    def duration(self) -> float:
        """Logical duration: delivery-to-handler-return time."""
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe rendering of the span (one JSONL line)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "node": self.node,
            "start": self.start,
            "end": self.end,
            "sent_at": self.sent_at,
            "hops": self.hops,
            "hop": self.hop,
            "wall_us": self.wall_us,
            "weight": self.weight,
            "ric_joined": self.ric_joined,
            "ric_spared": self.ric_spared,
            "arc_direct": self.arc_direct,
            "arc_misdirected": self.arc_misdirected,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        """Rebuild a span from :meth:`to_dict` output."""
        parent = data.get("parent_id")
        return cls(
            trace_id=str(data["trace_id"]),
            span_id=int(data["span_id"]),
            parent_id=None if parent is None else int(parent),
            name=str(data["name"]),
            node=str(data["node"]),
            start=float(data["start"]),
            end=float(data["end"]),
            sent_at=float(data.get("sent_at", data["start"])),
            hops=int(data.get("hops", 0)),
            hop=int(data.get("hop", 0)),
            wall_us=float(data.get("wall_us", 0.0)),
            weight=int(data.get("weight", 1)),
            ric_joined=int(data.get("ric_joined", 0)),
            ric_spared=int(data.get("ric_spared", 0)),
            arc_direct=int(data.get("arc_direct", 0)),
            arc_misdirected=int(data.get("arc_misdirected", 0)),
        )


class SpanSink:
    """Base class of span destinations; bounded, with a drop counter."""

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        if max_spans <= 0:
            raise ObservabilityError("max_spans must be positive")
        self.max_spans = max_spans
        self.recorded = 0
        self.dropped = 0

    def record(self, span: Span) -> None:
        """Record one finished span (drops once the bound is reached)."""
        if self.recorded >= self.max_spans:
            self.dropped += 1
            return
        self.recorded += 1
        self._store(span)

    def _store(self, span: Span) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        """Push buffered spans to their destination (no-op by default)."""

    def close(self) -> None:
        """Release resources held by the sink (no-op by default)."""


class MemorySink(SpanSink):
    """Keeps spans in memory; the default sink of an in-process engine."""

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        super().__init__(max_spans)
        self.spans: List[Span] = []

    def record(self, span: Span) -> None:
        """Record one finished span (drops once the bound is reached).

        Overrides the base bound-check + ``_store`` dispatch pair with one
        flat method: this is the per-span hot path of the default sink.
        """
        if self.recorded >= self.max_spans:
            self.dropped += 1
            return
        self.recorded += 1
        self.spans.append(span)

    def write_jsonl(self, path: str) -> int:
        """Dump the retained spans as JSONL; returns the span count."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict(), sort_keys=True))
                handle.write("\n")
        return len(self.spans)


class JsonlSink(SpanSink):
    """Streams spans to a JSONL file as they finish (bounded)."""

    def __init__(self, path: str, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        super().__init__(max_spans)
        self.path = path
        self._handle: Optional[TextIO] = open(path, "w", encoding="utf-8")

    def _store(self, span: Span) -> None:
        if self._handle is None:
            raise ObservabilityError(
                f"trace sink {self.path!r} is closed; no further spans "
                "can be recorded"
            )
        self._handle.write(json.dumps(span.to_dict(), sort_keys=True))
        self._handle.write("\n")

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def load_spans(path: str) -> List[Span]:
    """Read a JSONL trace file back into :class:`Span` objects."""
    spans: List[Span] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                spans.append(Span.from_dict(json.loads(line)))
            except (ValueError, KeyError, TypeError) as exc:
                raise ObservabilityError(
                    f"{path}:{line_number}: malformed trace line ({exc})"
                ) from exc
    return spans
