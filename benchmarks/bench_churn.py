"""Re-homing cost per membership event (node join / graceful leave / crash).

Builds a warmed-up engine (queries indexed, tuples stored), then drives a
sequence of membership events of each kind against it and records, in
``benchmarks/BENCH_churn.json``:

* wall-clock per event (mean over the sequence),
* records and estimated payload bytes re-homed per join/leave,
* records and estimated payload bytes lost per crash,
* events per second — how fast the engine absorbs topology change.

Each kind is measured on a *fresh copy* of the warmed engine so the ring
sizes are comparable (a crash-depleted ring would make later joins cheaper).

Usage::

    PYTHONPATH=src python benchmarks/bench_churn.py [--smoke]
        [--events N] [--nodes N] [--queries N] [--tuples N]

``--smoke`` shrinks everything to a correctness sweep (used by
``run_all.py`` / the ``bench_smoke`` marker).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.config import RJoinConfig
from repro.core.engine import RJoinEngine
from repro.workload.generator import WorkloadGenerator, WorkloadSpec

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_churn.json"

DEFAULT_SIZES = {"nodes": 64, "queries": 200, "tuples": 300, "events": 10}
SMOKE_SIZES = {"nodes": 12, "queries": 10, "tuples": 20, "events": 2}


def _build_engine(nodes: int, queries: int, tuples: int, seed: int = 7) -> RJoinEngine:
    """A warmed-up engine with indexed queries and stored tuples."""
    spec = WorkloadSpec(
        num_relations=6,
        attributes_per_relation=4,
        value_domain=20,
        join_arity=3,
        seed=seed,
    )
    generator = WorkloadGenerator(spec)
    engine = RJoinEngine(RJoinConfig(num_nodes=nodes, seed=seed))
    engine.register_catalog(generator.catalog)
    for query in generator.generate_queries(queries):
        engine.submit(query, process=False)
    engine.run()
    for generated in generator.generate_tuples(tuples):
        engine.publish(generated.relation, generated.values, process=False)
    engine.run()
    return engine


def _measure(
    kind: str, nodes: int, queries: int, tuples: int, events: int
) -> Dict[str, object]:
    """Time ``events`` membership events of one kind on a fresh engine."""
    engine = _build_engine(nodes, queries, tuples)
    before_events = engine.churn.membership_events
    started = time.perf_counter()
    for _ in range(events):
        if kind == "join":
            engine.add_node()
        elif kind == "leave":
            engine.remove_node(graceful=True)
        else:
            engine.crash_node()
    elapsed = time.perf_counter() - started
    performed = engine.churn.membership_events - before_events
    stats = engine.churn
    per_event = elapsed / performed if performed else 0.0
    return {
        "kind": kind,
        "events": performed,
        "seconds": elapsed,
        "seconds_per_event": per_event,
        "events_per_second": (1.0 / per_event) if per_event else 0.0,
        "records_rehomed": stats.records_rehomed,
        "bytes_rehomed": stats.bytes_rehomed,
        "records_lost": stats.records_lost,
        "bytes_lost": stats.bytes_lost,
        "records_per_event": (
            (stats.records_rehomed + stats.records_lost) / performed
            if performed
            else 0.0
        ),
    }


def run_bench(smoke: bool = False, **overrides) -> Dict[str, object]:
    """Measure re-homing cost per membership event for every event kind."""
    sizes = dict(SMOKE_SIZES if smoke else DEFAULT_SIZES)
    sizes.update({k: v for k, v in overrides.items() if v is not None})
    results: List[Dict[str, object]] = [
        _measure(
            kind, sizes["nodes"], sizes["queries"], sizes["tuples"], sizes["events"]
        )
        for kind in ("join", "leave", "crash")
    ]
    return {"smoke": smoke, "sizes": sizes, "results": results}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes (correctness sweep only)"
    )
    parser.add_argument("--events", type=int, default=None)
    parser.add_argument("--nodes", type=int, default=None)
    parser.add_argument("--queries", type=int, default=None)
    parser.add_argument("--tuples", type=int, default=None)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    report = run_bench(
        smoke=args.smoke,
        events=args.events,
        nodes=args.nodes,
        queries=args.queries,
        tuples=args.tuples,
    )
    for row in report["results"]:
        print(
            f"{row['kind']:6s}: {row['events']} events, "
            f"{row['seconds_per_event'] * 1000:.2f} ms/event, "
            f"{row['records_per_event']:.1f} records/event "
            f"(rehomed {row['records_rehomed']}, lost {row['records_lost']})"
        )
    if not args.smoke:
        args.output.write_text(json.dumps(report, indent=2, sort_keys=True))
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
