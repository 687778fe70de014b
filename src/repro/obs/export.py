"""Trace export: Chrome/Perfetto ``trace_event`` conversion.

The JSONL span stream written by :class:`~repro.obs.trace.JsonlSink` is the
archival format; this module turns it into the Chrome ``trace_event`` JSON
that ``chrome://tracing`` and https://ui.perfetto.dev load directly, so a
simulated run can be inspected on a real timeline: one row ("thread") per
DHT node, one complete event per span, the trace id and hop metadata in
the event ``args``.

Logical time is mapped 1 logical unit -> 1 ms (the ``ts`` field is in
microseconds), which keeps hop delays (default 1.0) readable on the
Perfetto timeline.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from repro.obs.trace import Span

#: Microseconds per logical time unit in the exported timeline.
_US_PER_LOGICAL = 1_000.0


def chrome_trace_events(spans: Sequence[Span]) -> List[Dict[str, object]]:
    """Convert spans to Chrome ``trace_event`` complete events (``ph="X"``).

    Nodes become threads (sorted for a stable layout); zero-duration spans
    are stretched to one microsecond so they stay clickable on the
    timeline.
    """
    tids = {node: tid for tid, node in enumerate(sorted({s.node for s in spans}))}
    # Perfetto names rows via thread_name metadata events.
    events: List[Dict[str, object]] = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": node},
        }
        for node, tid in tids.items()
    ]
    for span in spans:
        duration = max(span.duration * _US_PER_LOGICAL, 1.0)
        events.append(
            {
                "name": span.name,
                "cat": span.trace_id,
                "ph": "X",
                "pid": 1,
                "tid": tids[span.node],
                "ts": span.start * _US_PER_LOGICAL,
                "dur": duration,
                "args": {
                    "trace_id": span.trace_id,
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "hop": span.hop,
                    "hops": span.hops,
                    "weight": span.weight,
                    "ric_joined": span.ric_joined,
                    "ric_spared": span.ric_spared,
                    "arc_direct": span.arc_direct,
                    "arc_misdirected": span.arc_misdirected,
                    "sent_at": span.sent_at,
                    "wall_us": span.wall_us,
                },
            }
        )
    return events


def write_chrome_trace(spans: Sequence[Span], path: str) -> int:
    """Write spans as a Chrome/Perfetto trace JSON file; returns event count.

    The output is the ``{"traceEvents": [...]}`` object form, which both
    ``chrome://tracing`` and Perfetto accept.
    """
    events = chrome_trace_events(spans)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events}, handle)
    return len(events)
