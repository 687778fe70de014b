"""Hot-path microbenchmarks: store / match / GC / publish throughput.

The figure benchmarks (``bench_fig*.py``) measure whole experiments; this
module times the node-local primitives they spend their time in, so that
perf-oriented PRs have a recorded trajectory:

* ``store_add`` — tuple insertion throughput of :class:`TupleStore`,
* ``prefix_match`` — attribute-level lookups (``tuples_for_prefix``),
* ``store_gc`` — window garbage collection (``remove_published_before``),
* ``altt_expire`` — ALTT Δ-expiry sweeps,
* ``publish`` — end-to-end engine publication (one ``publish_batch``),
* ``kernel_pending`` — ``SimulationKernel.pending_events`` polling.

Results are written to ``BENCH_hotpaths.json`` next to this file (override
with ``--output``).

Usage::

    PYTHONPATH=src python benchmarks/bench_micro_hotpaths.py [--smoke] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Callable, Dict, List

from repro.core.altt import AttributeLevelTupleTable
from repro.core.config import RJoinConfig
from repro.core.engine import RJoinEngine
from repro.data.schema import Catalog, RelationSchema
from repro.data.store import TupleStore
from repro.data.tuples import Tuple
from repro.net.simulator import SimulationKernel

_SEP = "\x1f"

DEFAULT_PARAMS: Dict[str, int] = {
    "add_tuples": 50_000,
    "prefix_relations": 40,
    "prefix_values": 250,
    "prefix_lookups": 40,
    "gc_tuples": 40_000,
    "gc_ticks": 400,
    "altt_tuples": 40_000,
    "altt_ticks": 400,
    "publish_nodes": 32,
    "publish_tuples": 400,
    "kernel_events": 20_000,
    "kernel_polls": 2_000,
}

SMOKE_PARAMS: Dict[str, int] = {
    "add_tuples": 2_000,
    "prefix_relations": 8,
    "prefix_values": 25,
    "prefix_lookups": 8,
    "gc_tuples": 2_000,
    "gc_ticks": 20,
    "altt_tuples": 2_000,
    "altt_ticks": 20,
    "publish_nodes": 16,
    "publish_tuples": 40,
    "kernel_events": 1_000,
    "kernel_polls": 100,
}


# ops/sec measured with DEFAULT_PARAMS on the seed implementation (before
# PR 1's indexed store / heap expiry / batched publish), kept so future runs
# can report the cumulative speedup without digging through git history.
PRE_PR1_BASELINE_OPS_PER_SEC: Dict[str, float] = {
    "store_add": 366887.0,
    "prefix_match": 977.0,
    "store_gc": 364.0,
    "altt_expire": 642.0,
    "publish": 4627.0,
    "kernel_pending": 1641.0,
}


def _schema() -> RelationSchema:
    return RelationSchema("R", ["a", "b"])


def _make_tuple(schema: RelationSchema, seq: int, pub_time: float) -> Tuple:
    return Tuple.from_schema(
        schema, (seq % 97, seq % 31), pub_time=pub_time, sequence=seq
    )


def _timed(label: str, operations: int, fn: Callable[[], object]) -> Dict[str, float]:
    start = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - start
    return {
        "benchmark": label,
        "operations": operations,
        "seconds": round(elapsed, 6),
        "ops_per_sec": round(operations / elapsed, 2) if elapsed > 0 else float("inf"),
    }


# ---------------------------------------------------------------------------
# individual benchmarks
# ---------------------------------------------------------------------------
def bench_store_add(params: Dict[str, int]) -> Dict[str, float]:
    schema = _schema()
    n = params["add_tuples"]
    tuples = [_make_tuple(schema, seq, float(seq)) for seq in range(n)]
    store = TupleStore()

    def run() -> None:
        for seq, tup in enumerate(tuples):
            key = f"R{_SEP}a{_SEP}{seq % 512!r}"
            store.add(key, tup, now=float(seq))

    return _timed("store_add", n, run)


def bench_prefix_match(params: Dict[str, int]) -> Dict[str, float]:
    schema = _schema()
    relations = params["prefix_relations"]
    values = params["prefix_values"]
    lookups = params["prefix_lookups"]
    store = TupleStore()
    seq = 0
    for rel in range(relations):
        for value in range(values):
            seq += 1
            key = f"rel{rel}{_SEP}a{_SEP}{value!r}"
            store.add(key, _make_tuple(schema, seq, float(seq)), now=float(seq))
    prefixes = [f"rel{rel}{_SEP}a{_SEP}" for rel in range(relations)]

    def run() -> None:
        for _ in range(lookups):
            for prefix in prefixes:
                store.tuples_for_prefix(prefix)

    return _timed("prefix_match", lookups * relations, run)


def bench_store_gc(params: Dict[str, int]) -> Dict[str, float]:
    schema = _schema()
    n = params["gc_tuples"]
    ticks = params["gc_ticks"]
    store = TupleStore()
    for seq in range(n):
        key = f"R{_SEP}a{_SEP}{seq % 1024!r}"
        store.add(key, _make_tuple(schema, seq, float(seq)), now=float(seq))
    step = n / ticks

    def run() -> None:
        removed = 0
        for tick in range(1, ticks + 1):
            removed += store.remove_published_before(tick * step)
        assert removed == n, f"expected {n} removals, got {removed}"

    return _timed("store_gc", ticks, run)


def bench_altt_expire(params: Dict[str, int]) -> Dict[str, float]:
    schema = _schema()
    n = params["altt_tuples"]
    ticks = params["altt_ticks"]
    # The engine's ratio: Δ is four maximum transit times.
    delta, max_transit = 1.0, 0.25
    table = AttributeLevelTupleTable(delta=delta, max_transit=max_transit)
    for seq in range(n):
        key = f"R{_SEP}a{seq % 1024}"
        table.add(key, _make_tuple(schema, seq, float(seq)), now=float(seq))
    step = n / ticks

    def run() -> None:
        removed = 0
        for tick in range(1, ticks + 1):
            # Expiry cuts publication times below now - Δ - max_transit.
            removed += table.expire(now=tick * step + delta + max_transit)
        assert removed == n, f"expected {n} expiries, got {removed}"

    return _timed("altt_expire", ticks, run)


def bench_publish(params: Dict[str, int]) -> Dict[str, float]:
    catalog = Catalog()
    catalog.add_relation("R", ["a", "b"])
    catalog.add_relation("S", ["c", "d"])
    engine = RJoinEngine(
        RJoinConfig(num_nodes=params["publish_nodes"], seed=11), catalog=catalog
    )
    n = params["publish_tuples"]
    rows = [
        ("R" if i % 2 == 0 else "S", (i % 13, i % 7)) for i in range(n)
    ]

    def run() -> None:
        engine.publish_batch(rows)

    return _timed("publish", n, run)


def bench_kernel_pending(params: Dict[str, int]) -> Dict[str, float]:
    kernel = SimulationKernel()
    events = params["kernel_events"]
    polls = params["kernel_polls"]
    for i in range(events):
        kernel.schedule_at(float(i), lambda: None)

    def run() -> None:
        for _ in range(polls):
            kernel.pending_events

    return _timed("kernel_pending", polls, run)


BENCHMARKS: List[Callable[[Dict[str, int]], Dict[str, float]]] = [
    bench_store_add,
    bench_prefix_match,
    bench_store_gc,
    bench_altt_expire,
    bench_publish,
    bench_kernel_pending,
]


def run_all(smoke: bool = False) -> Dict[str, object]:
    """Run every microbenchmark; returns the report dictionary."""
    params = SMOKE_PARAMS if smoke else DEFAULT_PARAMS
    results = [bench(dict(params)) for bench in BENCHMARKS]
    report = {
        "suite": "bench_micro_hotpaths",
        "smoke": smoke,
        "parameters": params,
        "results": {entry["benchmark"]: entry for entry in results},
    }
    if not smoke:
        # Comparable sizes: annotate each benchmark with its speedup over
        # the recorded seed-implementation baseline.
        report["baseline_ops_per_sec"] = PRE_PR1_BASELINE_OPS_PER_SEC
        for name, entry in report["results"].items():
            baseline = PRE_PR1_BASELINE_OPS_PER_SEC.get(name)
            if baseline:
                entry["speedup_vs_pre_pr1"] = round(
                    entry["ops_per_sec"] / baseline, 2
                )
    return report


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes (correctness sweep only)"
    )
    parser.add_argument(
        "--output",
        default=str(Path(__file__).parent / "BENCH_hotpaths.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    report = run_all(smoke=args.smoke)
    for name, entry in report["results"].items():
        speedup = entry.get("speedup_vs_pre_pr1")
        suffix = f", {speedup:.1f}x vs pre-PR1" if speedup else ""
        print(
            f"{name:>16}: {entry['operations']:>8} ops in {entry['seconds']:.4f}s "
            f"({entry['ops_per_sec']:.0f} ops/s{suffix})"
        )
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
