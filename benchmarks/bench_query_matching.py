"""Million-query matching: probe throughput vs resident query count.

The tentpole measurement of the predicate-aware query index: a
:class:`~repro.core.node.QueryTable` is loaded with ``Q`` rewritten-query
records under one indexing key — each carrying a distinct discriminating
selection constant, the query-flood shape — and the tuple-arrival probe is
timed against the pre-index linear scan over the same table:

* **indexed_probe** — ``QueryTable.probe`` fetches only the records whose
  discriminator matches the arriving tuple's values (plus wildcards);
  throughput must stay flat as ``Q`` grows (sublinear matching),
* **linear_scan** — the pre-PR behaviour: touch every resident record and
  test its selection against the tuple, the per-arrival cost that made
  million-query populations infeasible.

Each row records per-arrival ``ops_per_sec`` for both paths, the speedup,
and the index hit ratio (candidates fetched / records resident — the
fraction of the table a probe actually touches).  A second suite measures
multi-query sharing end to end on a real engine: N duplicate queries are
batch-submitted and their stored records, answer fan-out and answer counts
are compared with one copy's.

Usage::

    PYTHONPATH=src python benchmarks/bench_query_matching.py [--smoke]
        [--probes N] [--output FILE]

``--smoke`` shrinks the sweep to a correctness pass (used by
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
from repro.core.keys import IndexKey
from repro.core.node import QueryTable, StoredQueryRecord
from repro.core.protocol import QueryState
from repro.core.rewriting import QueryShape
from repro.data.schema import Catalog
from repro.sql.ast import AttributeRef, Constant, Query, SelectionPredicate

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_query_matching.json"

DEFAULT_SIZES = {
    "query_counts": (1_000, 10_000, 100_000),
    "probes": 20_000,
    "linear_arrivals": 20,
    "sharing_copies": 100,
}
SMOKE_SIZES = {
    "query_counts": (200,),
    "probes": 500,
    "linear_arrivals": 5,
    "sharing_copies": 8,
}

#: The indexing key every benchmark record is stored under: rewritten
#: queries over S waiting for tuples with ``S.c = 10``.
KEY = IndexKey("S", "c", 10)


def _rewritten_query(constant: int) -> Query:
    """``SELECT <constant>, S.d FROM S WHERE S.c = 10 AND S.d = <constant>``.

    The shape a two-way join leaves behind after consuming its R tuple: one
    remaining relation, the join binding on the key attribute and a residual
    selection whose constant discriminates the record in the index.
    """
    d_ref = AttributeRef("S", "d")
    return Query(
        select_items=(Constant(constant), d_ref),
        relations=("S",),
        join_predicates=(),
        selection_predicates=(
            SelectionPredicate(AttributeRef("S", "c"), 10),
            SelectionPredicate(d_ref, constant),
        ),
    )


def _build_table(num_queries: int) -> QueryTable:
    table = QueryTable()
    shape = QueryShape()  # every record has one shape, as in the engine
    for k in range(num_queries):
        state = QueryState(
            query_id=f"q{k}",
            owner="bench-node",
            query=_rewritten_query(k),
            insertion_time=0.0,
            is_input=False,
            consumed=1,
            shape=shape,
        )
        table.add(KEY.text, StoredQueryRecord(state=state, key=KEY))
    return table


def _measure_matching(
    num_queries: int, probes: int, linear_arrivals: int
) -> Dict[str, object]:
    """Indexed-probe vs linear-scan throughput at one population size."""
    table = _build_table(num_queries)

    # Indexed probes: arrivals cycle through the discriminating values, so
    # every probe fetches exactly the records it can rewrite.
    candidates_fetched = 0
    started = time.perf_counter()
    for i in range(probes):
        d_value = i % num_queries
        candidates = table.probe(
            KEY.text, lambda attribute, d=d_value: 10 if attribute == "c" else d
        )
        candidates_fetched += len(candidates)
    indexed_seconds = time.perf_counter() - started
    indexed_rate = probes / indexed_seconds if indexed_seconds else 0.0

    # Linear scan: the pre-index arrival path touched every resident record
    # and tested its selections against the tuple's values.
    records = table.get(KEY.text) or []
    linear_matches = 0
    started = time.perf_counter()
    for i in range(linear_arrivals):
        values = {"c": 10, "d": i % num_queries}
        for record in records:
            satisfied = True
            for sp in record.state.query.selection_predicates:
                if values[sp.attribute.attribute] != sp.value:
                    satisfied = False
                    break
            if satisfied:
                linear_matches += 1
    linear_seconds = time.perf_counter() - started
    linear_rate = linear_arrivals / linear_seconds if linear_seconds else 0.0

    per_probe = candidates_fetched / probes if probes else 0.0
    return {
        "name": f"q{num_queries}",
        "resident_queries": num_queries,
        "probes": probes,
        "linear_arrivals": linear_arrivals,
        "candidates_per_probe": per_probe,
        "index_hit_ratio": per_probe / num_queries if num_queries else 0.0,
        "linear_matches": linear_matches,
        "seconds": {
            "indexed_probe": indexed_seconds,
            "linear_scan": linear_seconds,
        },
        "ops_per_sec": {
            "indexed_probe": indexed_rate,
            "linear_scan": linear_rate,
        },
        "indexed_speedup": (indexed_rate / linear_rate) if linear_rate else 0.0,
    }


def _measure_sharing(copies: int) -> Dict[str, object]:
    """``copies`` batch-submitted duplicates of one query against one copy."""
    catalog = Catalog()
    catalog.add_relation("R", ["a", "b"])
    catalog.add_relation("S", ["c", "d"])
    sql = "SELECT R.a, S.d FROM R, S WHERE R.b = S.c"
    rows = [("R", (1, 10)), ("S", (10, 2)), ("R", (3, 10)), ("S", (10, 4))]

    def run(submissions: int) -> Dict[str, float]:
        engine = RJoinEngine(RJoinConfig(num_nodes=16, seed=9), catalog=catalog)
        for _ in range(submissions):
            engine.submit(sql, process=False)
        engine.run()
        for relation, values in rows:
            engine.publish(relation, values)
        return engine.metrics_summary()

    started = time.perf_counter()
    shared = run(copies)
    single = run(1)
    elapsed = time.perf_counter() - started
    return {
        "name": f"sharing-x{copies}",
        "copies": copies,
        "seconds": elapsed,
        "answers": shared["answers"],
        "answers_single": single["answers"],
        "shared_state_fanout": shared["shared_state_fanout"],
        "current_storage_shared": shared["current_storage"],
        "current_storage_single": single["current_storage"],
    }


def run_bench(smoke: bool = False, **overrides) -> Dict[str, object]:
    """The matching-throughput sweep plus the sharing comparison."""
    sizes = dict(SMOKE_SIZES if smoke else DEFAULT_SIZES)
    sizes.update({k: v for k, v in overrides.items() if v is not None})
    results: List[Dict[str, object]] = []
    for num_queries in sizes["query_counts"]:
        results.append(
            _measure_matching(
                num_queries, sizes["probes"], sizes["linear_arrivals"]
            )
        )
    sharing = _measure_sharing(sizes["sharing_copies"])
    sizes["query_counts"] = list(sizes["query_counts"])
    return {
        "smoke": smoke,
        "sizes": sizes,
        "results": results,
        "sharing": sharing,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes (correctness sweep only)",
    )
    parser.add_argument("--probes", type=int, default=None)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    report = run_bench(smoke=args.smoke, probes=args.probes)
    for row in report["results"]:
        rates = row["ops_per_sec"]
        print(
            f"match (Q={row['resident_queries']:7d}): "
            f"indexed {rates['indexed_probe']:12,.0f} probes/s, "
            f"linear {rates['linear_scan']:10,.1f} arrivals/s, "
            f"{row['indexed_speedup']:8.1f}x, "
            f"hit ratio {row['index_hit_ratio']:.2e}"
        )
    sharing = report["sharing"]
    print(
        f"sharing (x{sharing['copies']} vs x1): "
        f"storage {sharing['current_storage_shared']:.0f} vs "
        f"{sharing['current_storage_single']:.0f}, "
        f"answers {sharing['answers']:.0f} vs {sharing['answers_single']:.0f}, "
        f"fanout {sharing['shared_state_fanout']:.0f}"
    )
    if not args.smoke:
        args.output.write_text(json.dumps(report, indent=2, sort_keys=True))
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
