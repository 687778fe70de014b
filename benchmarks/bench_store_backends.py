"""Throughput of every tuple-store backend on the store hot paths.

Measures, per registered backend (``memory`` / ``sqlite``) and in
operations per second:

* ``add`` — insertion throughput (the sqlite backend amortises this through
  its batched write buffer, so the flush cost is included),
* ``prefix_match`` — attribute-level prefix lookups over a populated store,
* ``batch_match`` — the same lookups through ``tuples_for_prefixes``, whole
  probe batches per call; every backend serves it through the
  ``StoreBackend`` base-class wrapper (one ``tuples_for_prefix`` per
  prefix), and the metric keeps its name so the committed baseline still
  compares,
* ``window_gc`` — ``remove_published_before`` ticks interleaved with fresh
  writes, the sliding-window GC pressure pattern,
* ``rehome`` — ``remove_key`` + replay into a fresh store of the same kind,
  the membership re-homing round trip.

Results go to ``benchmarks/BENCH_store_backends.json`` and are compared
against the committed baselines by ``benchmarks/check_regression.py`` in CI.

Usage::

    PYTHONPATH=src python benchmarks/bench_store_backends.py [--smoke]
        [--tuples N] [--lookups N] [--gc-ticks N]
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.data.backends import BACKEND_NAMES, SEPARATOR, make_store
from repro.data.schema import RelationSchema
from repro.data.tuples import Tuple

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_store_backends.json"

DEFAULT_SIZES = {"tuples": 50000, "lookups": 4000, "gc_ticks": 400}
SMOKE_SIZES = {"tuples": 400, "lookups": 40, "gc_ticks": 8}

RELATIONS = 8
ATTRIBUTES = 4
VALUES = 50


def _make_tuples(count: int) -> List[Tuple]:
    """A deterministic stream of tuples cycling through the key space."""
    schemas = [
        RelationSchema(f"R{index}", [f"a{a}" for a in range(ATTRIBUTES)])
        for index in range(RELATIONS)
    ]
    tuples = []
    for seq in range(count):
        schema = schemas[seq % RELATIONS]
        values = tuple((seq * 7 + offset) % VALUES for offset in range(ATTRIBUTES))
        tuples.append(
            Tuple.from_schema(
                schema, values, pub_time=float(seq), sequence=seq + 1
            )
        )
    return tuples


def _key_of(tup: Tuple, attribute_index: int = 0) -> str:
    attribute = f"a{attribute_index}"
    value = tup.values[attribute_index]
    return f"{tup.relation}{SEPARATOR}{attribute}{SEPARATOR}{value!r}"


def _prefixes() -> List[str]:
    return [
        f"R{relation}{SEPARATOR}a{attribute}{SEPARATOR}"
        for relation in range(RELATIONS)
        for attribute in range(ATTRIBUTES)
    ]


def _timed(operations: int, fn) -> Dict[str, float]:
    started = time.perf_counter()
    fn()
    seconds = time.perf_counter() - started
    return {
        "operations": operations,
        "seconds": round(seconds, 6),
        "rate": (operations / seconds) if seconds else 0.0,
    }


def _measure_backend(backend: str, sizes: Dict[str, int]) -> Dict[str, object]:
    tuples = _make_tuples(sizes["tuples"])

    # add ------------------------------------------------------------------
    store = make_store(backend)

    def _add() -> None:
        for tup in tuples:
            store.add(_key_of(tup), tup, now=tup.pub_time)
        # The flush belongs to the write path: without it the sqlite rate
        # would only time buffer appends, not the actual INSERTs.
        store.flush()

    timing_add = _timed(len(tuples), _add)

    # prefix_match ---------------------------------------------------------
    prefixes = _prefixes()
    lookups = sizes["lookups"]

    def _lookup() -> None:
        for index in range(lookups):
            store.tuples_for_prefix(prefixes[index % len(prefixes)])

    timing_prefix = _timed(lookups, _lookup)

    # batch_match ----------------------------------------------------------
    # Same probe volume, but whole batches through the set-at-a-time API.
    batch_rounds = max(lookups // len(prefixes), 1)

    def _batch_lookup() -> None:
        for _ in range(batch_rounds):
            store.tuples_for_prefixes(prefixes)

    timing_batch = _timed(batch_rounds * len(prefixes), _batch_lookup)

    # window_gc ------------------------------------------------------------
    ticks = sizes["gc_ticks"]
    window = max(sizes["tuples"] // max(ticks, 1), 1)

    def _gc() -> None:
        for tick in range(1, ticks + 1):
            store.remove_published_before(float(tick * window))

    timing_gc = _timed(ticks, _gc)

    # rehome ---------------------------------------------------------------
    source = make_store(backend)
    rehome_tuples = tuples[: max(sizes["tuples"] // 4, 1)]
    for tup in rehome_tuples:
        source.add(_key_of(tup), tup, now=tup.pub_time)
    # Settle the source's write buffer so the rehome window times only the
    # extraction + replay round trip, not the source's own pending inserts.
    source.flush()
    target = make_store(backend)

    def _rehome() -> None:
        for key in list(source.keys()):
            for record in source.remove_key(key):
                target.add(record.key, record.tuple, record.stored_at)
        target.flush()

    timing_rehome = _timed(len(rehome_tuples), _rehome)

    result: Dict[str, object] = {
        "backend": backend,
        "ops_per_sec": {
            "add": round(timing_add["rate"], 2),
            "prefix_match": round(timing_prefix["rate"], 2),
            "batch_match": round(timing_batch["rate"], 2),
            "window_gc": round(timing_gc["rate"], 2),
            "rehome": round(timing_rehome["rate"], 2),
        },
        "seconds": {
            "add": timing_add["seconds"],
            "prefix_match": timing_prefix["seconds"],
            "batch_match": timing_batch["seconds"],
            "window_gc": timing_gc["seconds"],
            "rehome": timing_rehome["seconds"],
        },
        "residual_records": len(store),
    }
    for opened in (store, source, target):
        opened.close()
    return result


def run_bench(smoke: bool = False, **overrides) -> Dict[str, object]:
    """Measure every backend; returns the JSON-safe report."""
    sizes = dict(SMOKE_SIZES if smoke else DEFAULT_SIZES)
    sizes.update({k: v for k, v in overrides.items() if v is not None})
    return {
        "smoke": smoke,
        "parameters": sizes,
        "results": [_measure_backend(backend, sizes) for backend in BACKEND_NAMES],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes (correctness sweep only)"
    )
    parser.add_argument("--tuples", type=int, default=None)
    parser.add_argument("--lookups", type=int, default=None)
    parser.add_argument("--gc-ticks", dest="gc_ticks", type=int, default=None)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    report = run_bench(
        smoke=args.smoke,
        tuples=args.tuples,
        lookups=args.lookups,
        gc_ticks=args.gc_ticks,
    )
    for row in report["results"]:
        rates = row["ops_per_sec"]
        line = ", ".join(f"{name}={rate:,.0f}/s" for name, rate in rates.items())
        print(f"{row['backend']:>10s}: {line}")
    if not args.smoke:
        args.output.write_text(json.dumps(report, indent=2, sort_keys=True))
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
