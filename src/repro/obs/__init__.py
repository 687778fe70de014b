"""End-to-end observability: trace propagation + latency histograms.

The zero-dependency observability layer of the reproduction.  Enabled via
``RJoinConfig(observability="on")``, one :class:`Observability` per engine:

* every :class:`~repro.net.messages.Envelope` carries a
  :class:`TraceContext` and every delivery opens a :class:`Span`
  (logical-clock timestamps; wall-clock service time on the asyncio
  runtime), kept by a bounded sink; a span carries its delivery's
  attribution (hops, weight, RIC questions joined or spared, routing-cache
  arcs),
* fixed-bucket histograms record answer latency, per-hop delay, handler
  service time, inbox depth and store probe sizes; they fold into
  ``metrics_summary`` as ``*_p50/_p95/_p99`` keys (see ``SUMMARY_SCHEMA``).
  Counts are the engine's own ``ChurnStats`` and per-node counter fields,
* ``python -m repro.obs`` summarizes or converts a recorded trace file
  (Chrome/Perfetto ``trace_event`` output).
"""

from repro.obs.context import Observability
from repro.obs.export import chrome_trace_events, write_chrome_trace
from repro.obs.instruments import (
    HISTOGRAMS,
    PERCENTILE_POINTS,
    Histogram,
    HistogramSpec,
    histogram_percentiles,
)
from repro.obs.trace import (
    DEFAULT_MAX_SPANS,
    OBSERVABILITY_MODES,
    JsonlSink,
    MemorySink,
    Span,
    SpanSink,
    TraceContext,
    load_spans,
)

__all__ = [
    "Observability",
    "chrome_trace_events",
    "write_chrome_trace",
    "HISTOGRAMS",
    "PERCENTILE_POINTS",
    "Histogram",
    "HistogramSpec",
    "histogram_percentiles",
    "DEFAULT_MAX_SPANS",
    "OBSERVABILITY_MODES",
    "JsonlSink",
    "MemorySink",
    "Span",
    "SpanSink",
    "TraceContext",
    "load_spans",
]
