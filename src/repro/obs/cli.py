"""``python -m repro.obs`` — inspect a recorded trace file.

Two subcommands over the JSONL span stream an ``observability="on"`` run
produces::

    python -m repro.obs summarize TRACE.jsonl [--top N]
    python -m repro.obs convert TRACE.jsonl --output trace.json

``summarize`` prints the run's shape: span/trace totals, the hop breakdown
per message kind (with the logical messages each envelope carried — the
answers per answer envelope — the RIC questions its handlers joined onto
chains in flight instead of sending and those they spared because no answer
could have changed the choice, and how many of the kind were sent in
one hop on a cached arc, with those that arrived on a stale one), the
slowest end-to-end traces with their critical path (the chain of spans from
the root to the last delivery), and the slowest individual spans.
``convert`` writes Chrome ``trace_event`` JSON for ``chrome://tracing`` /
https://ui.perfetto.dev.
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional, Sequence, TextIO

from repro.errors import ObservabilityError, ReproError
from repro.obs.export import write_chrome_trace
from repro.obs.trace import Span, load_spans


def _traces(spans: Sequence[Span]) -> Dict[str, List[Span]]:
    """Spans grouped by trace id, preserving recording order."""
    grouped: Dict[str, List[Span]] = {}
    for span in spans:
        grouped.setdefault(span.trace_id, []).append(span)
    return grouped


def critical_path(trace_spans: Sequence[Span]) -> List[Span]:
    """The root-to-latest chain of one trace.

    Walks parent links upward from the span that finished last; the
    returned list is ordered root first.
    """
    if not trace_spans:
        return []
    by_id = {span.span_id: span for span in trace_spans}
    cursor: Optional[Span] = max(trace_spans, key=lambda s: (s.end, s.span_id))
    path: List[Span] = []
    visited = set()
    while cursor is not None and cursor.span_id not in visited:
        visited.add(cursor.span_id)
        path.append(cursor)
        parent = cursor.parent_id
        cursor = by_id.get(parent) if parent is not None else None
    path.reverse()
    return path


def _trace_latency(trace_spans: Sequence[Span]) -> float:
    """End-to-end logical latency of one trace (first start to last end)."""
    return max(s.end for s in trace_spans) - min(s.start for s in trace_spans)


def summarize(spans: Sequence[Span], out: TextIO, top: int = 5) -> None:
    """Print the human-readable trace summary."""
    if not spans:
        out.write("empty trace: no spans recorded\n")
        return
    grouped = _traces(spans)
    nodes = {span.node for span in spans}
    out.write(
        f"{len(spans)} spans in {len(grouped)} traces across "
        f"{len(nodes)} nodes\n"
    )

    # Hop breakdown per message kind: where the network traffic goes.  An
    # envelope can carry several logical messages (the answers one handler
    # invocation produced for one owner); "per envelope" is how many.  "RIC
    # joined" is traffic that did not happen: questions the kind's handlers
    # waited for on a chain already in flight — and "spared": questions no
    # answer to which could have changed the choice.  "direct" are the deliveries
    # of the kind that came in one hop on a cached arc, "misdirected" those
    # among them that reached a node no longer owning the identifier.
    out.write("\nhop breakdown by message kind:\n")
    by_kind: Dict[str, List[Span]] = {}
    for span in spans:
        by_kind.setdefault(span.name, []).append(span)
    for kind in sorted(by_kind, key=lambda k: -len(by_kind[k])):
        kind_spans = by_kind[kind]
        hops = sum(span.hops for span in kind_spans)
        transit = sum(span.start - span.sent_at for span in kind_spans)
        mean_delay = transit / len(kind_spans)
        carried = sum(span.weight for span in kind_spans)
        joined = sum(span.ric_joined for span in kind_spans)
        spared = sum(span.ric_spared for span in kind_spans)
        direct = sum(span.arc_direct for span in kind_spans)
        misdirected = sum(span.arc_misdirected for span in kind_spans)
        out.write(
            f"  {kind:<24} {len(kind_spans):>7} deliveries "
            f"{hops:>8} hops  mean transit {mean_delay:.2f}  "
            f"{carried / len(kind_spans):.2f} per envelope  "
            f"{joined:>6} RIC joined {spared:>6} spared {direct:>6} direct "
            f"{misdirected:>4} misdirected\n"
        )

    # Slowest traces end to end, with their critical path.
    ranked = sorted(grouped.items(), key=lambda item: -_trace_latency(item[1]))
    out.write(f"\nslowest {min(top, len(ranked))} traces (end-to-end):\n")
    for trace_id, trace_spans in ranked[:top]:
        latency = _trace_latency(trace_spans)
        path = critical_path(trace_spans)
        chain = " -> ".join(f"{span.name}@{span.node}" for span in path)
        out.write(
            f"  {trace_id:<20} latency {latency:>8.2f} "
            f"({len(trace_spans)} spans)\n"
        )
        out.write(f"    critical path: {chain}\n")

    # Slowest individual spans (logical handler-visible duration).
    slowest = sorted(spans, key=lambda span: -span.duration)[:top]
    out.write(f"\nslowest {len(slowest)} spans:\n")
    for span in slowest:
        out.write(
            f"  {span.name:<24} on {span.node:<12} trace {span.trace_id:<18}"
            f" duration {span.duration:.2f} (hop {span.hop})\n"
        )


def main(argv: Optional[Sequence[str]] = None, out: Optional[TextIO] = None) -> int:
    """CLI entry point; returns a process exit code."""
    import sys

    stream = sys.stdout if out is None else out
    parser = argparse.ArgumentParser(prog="python -m repro.obs", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    cmd_summarize = commands.add_parser(
        "summarize", help="print span/trace statistics for a trace file"
    )
    cmd_summarize.add_argument("trace", help="JSONL trace file to read")
    cmd_summarize.add_argument(
        "--top", type=int, default=5, help="slowest traces/spans to show"
    )

    cmd_convert = commands.add_parser(
        "convert", help="write Chrome/Perfetto trace_event JSON"
    )
    cmd_convert.add_argument("trace", help="JSONL trace file to read")
    cmd_convert.add_argument(
        "--output", required=True, help="Chrome trace JSON file to write"
    )

    args = parser.parse_args(argv)
    try:
        spans = load_spans(args.trace)
    except (OSError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.command == "summarize":
        if args.top <= 0:
            print("error: --top must be positive", file=sys.stderr)
            return 1
        summarize(spans, stream, top=args.top)
        return 0
    try:
        events = write_chrome_trace(spans, args.output)
    except (OSError, ObservabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    stream.write(
        f"wrote {events} trace events to {args.output} "
        "(load in chrome://tracing or ui.perfetto.dev)\n"
    )
    return 0
