"""Observability-overhead gate: ``off`` must be free, ``on`` must be bounded.

Runs the identical query-flood workload in three flavours in one process on
the ``sim`` runtime — a *baseline* pass (``observability="off"``), a second
``off`` pass and an ``on`` pass, interleaved over ``REPEATS`` rounds.  Each
round yields one throughput-ratio sample per gate and the gate judges the
*median* ratio across rounds; ``BENCH_observability.json`` records both the
per-round samples and each flavour's best publish-phase throughput:

* ``off`` vs baseline measures the cost of the dormant instrumentation
  (one ``is not None`` check per hook): the two passes run byte-identical
  code, so the ratio must stay within **5%** — and because it is a
  *control* (identical code can only diverge through host noise), a run
  whose control falls outside the band is re-measured up to ``--attempts``
  times and left advisory if the host never quiets down, rather than
  failing CI on scheduler noise,
* ``on`` vs baseline measures the full tracing + histogram layer (a span
  per delivery, the transit instruments, trace-context stamping): the
  ratio must stay within **25%**, enforced only on a measurement whose
  control validated.

Both ratios are measured *within one run on one host*, so the gate is
hardware-independent; the committed copy under ``benchmarks/baselines/``
documents the reference numbers.  Rates are deliberately keyed
``tuples_per_sec`` (not ``*_per_second``) so ``check_regression.py`` never
compares the absolute numbers across machines — the in-run ratios are the
gate.  Every pass must also produce the identical answer bag: observability
must never change behaviour, only report on it.

A gate is only enforced when the baseline timing window is long enough to
be trustworthy (``--min-seconds``, default 0.2 s); below that the ratios
are recorded but advisory — a 5% tolerance is meaningless on millisecond
windows.

Usage::

    PYTHONPATH=src python benchmarks/bench_observability.py [--smoke]
        [--check] [--output PATH] [--trace-out PATH]

``--check`` exits non-zero when an enforced gate fails (the CI mode);
``--trace-out`` dumps the ``on`` pass's spans as JSONL — CI uploads it as a
sample-trace artifact.
"""

from __future__ import annotations

import argparse
import gc
import json
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional

from repro.core.config import RJoinConfig
from repro.core.engine import RJoinEngine
from repro.workload.generator import WorkloadGenerator, WorkloadSpec

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_observability.json"

#: Throughput floors relative to the in-run baseline pass.
OFF_FLOOR = 0.95
ON_FLOOR = 0.75

#: Baseline windows shorter than this are recorded but not enforced.
DEFAULT_MIN_SECONDS = 0.2

#: Whole-measurement retries while the off control is outside its band.
DEFAULT_ATTEMPTS = 3

#: Timing rounds; every round runs all three modes back-to-back and yields
#: one ratio sample per gate, and the *median* ratio across rounds is what
#: the gate judges.  Comparing per-mode minima instead turned out to be
#: noise-sensitive on shared hosts: three samples per mode let one mode's
#: minimum catch a quiet window the others never saw, skewing the ratio by
#: more than the 5% tolerance the off gate allows.
REPEATS = 5

#: Pass order within one repeat round: (report name, observability mode).
#: The modes run back-to-back inside every round — interleaved rather than
#: three sequential blocks — so slow time-correlated load drift (CPU
#: frequency scaling, a neighbour container waking up) hits every mode
#: alike instead of biasing whichever block it lands in.
PASSES = (("baseline", "off"), ("off", "off"), ("on", "on"))


def _one_pass(
    mode: str,
    num_nodes: int,
    queries: List[object],
    tuples: List[object],
    generator: WorkloadGenerator,
    trace_out: Optional[Path] = None,
) -> Dict[str, float]:
    """Time one publish phase under ``mode``; returns timing + answer bag."""
    engine = RJoinEngine(RJoinConfig(num_nodes=num_nodes, seed=90, observability=mode))
    engine.register_catalog(generator.catalog)
    handles = [engine.submit(query) for query in queries]
    # GC hygiene, applied identically to every mode: collect the setup
    # garbage, then keep the collector out of the timed window.  Without
    # this, whichever pass a cyclic collection lands in loses ~10% — far
    # more than the 5% tolerance the off gate enforces — and the ratios
    # measure GC scheduling, not instrumentation.
    gc.collect()
    gc.disable()
    start = perf_counter()
    try:
        for generated in tuples:
            engine.publish(generated.relation, generated.values)
        elapsed = perf_counter() - start
    finally:
        gc.enable()
    spans = 0.0
    if mode == "on":
        spans = float(len(engine.obs.spans))
        if trace_out is not None:
            engine.write_trace(str(trace_out))
    answers = sum(handle.count for handle in handles)
    engine.close()
    return {
        "publish_seconds": elapsed,
        "answers": float(answers),
        "spans_recorded": spans,
    }


def _measure(
    num_nodes: int,
    queries: List[object],
    tuples: List[object],
    generator: WorkloadGenerator,
    trace_out: Optional[Path] = None,
) -> Dict[str, object]:
    """Interleaved timing over ``REPEATS`` rounds of every observability mode.

    Each round yields one throughput-ratio sample per gate (the three modes
    inside a round run back-to-back, so whatever the host was doing hit all
    of them alike); the returned ``off_ratios`` / ``on_ratios`` lists carry
    one entry per round and the caller gates on their median.
    """
    results: Dict[str, Dict[str, float]] = {}
    off_ratios: List[float] = []
    on_ratios: List[float] = []
    for repeat in range(REPEATS):
        round_seconds: Dict[str, float] = {}
        for name, mode in PASSES:
            capture = trace_out if name == "on" and repeat == REPEATS - 1 else None
            sample = _one_pass(mode, num_nodes, queries, tuples, generator, capture)
            round_seconds[name] = sample["publish_seconds"]
            entry = results.setdefault(name, dict(sample))
            if sample["answers"] != entry["answers"]:
                raise AssertionError(
                    f"pass {name!r} changed the answer bag: "
                    f"{sample['answers']} != {entry['answers']}"
                )
            entry["publish_seconds"] = min(
                entry["publish_seconds"], sample["publish_seconds"]
            )
            entry["spans_recorded"] = max(
                entry["spans_recorded"], sample["spans_recorded"]
            )
        base = round_seconds["baseline"]
        off_ratios.append(base / round_seconds["off"] if round_seconds["off"] else 0.0)
        on_ratios.append(base / round_seconds["on"] if round_seconds["on"] else 0.0)
    for entry in results.values():
        seconds = entry["publish_seconds"]
        entry["tuples_per_sec"] = len(tuples) / seconds if seconds > 0 else 0.0
    return {"modes": results, "off_ratios": off_ratios, "on_ratios": on_ratios}


def run_bench(
    smoke: bool = False,
    min_seconds: float = DEFAULT_MIN_SECONDS,
    trace_out: Optional[Path] = None,
    attempts: int = DEFAULT_ATTEMPTS,
) -> Dict[str, object]:
    """Measure the overhead gates; the report carries pass/fail verdicts.

    The ``off`` pass is a *control*: it runs code byte-identical to the
    baseline pass, so any deviation of its ratio from 1.0 is host noise,
    not instrumentation.  A measurement only counts as trustworthy when
    the control lands within the off band ([``OFF_FLOOR``, 2-``OFF_FLOOR``]);
    otherwise the whole interleaved measurement is retried, up to
    ``attempts`` times, and the gates go advisory if the host never
    produces a clean control — a noisy box must not fail CI on identical
    code.
    """
    num_nodes, num_queries, num_tuples = (8, 6, 20) if smoke else (24, 30, 160)
    spec = WorkloadSpec(
        num_relations=4,
        attributes_per_relation=3,
        value_domain=4,
        join_arity=3,
        seed=901,
    )
    generator = WorkloadGenerator(spec)
    queries = generator.generate_queries(num_queries)
    tuples = generator.generate_tuples(num_tuples)

    control_band = (OFF_FLOOR, 2.0 - OFF_FLOOR)
    attempts = max(1, attempts)
    attempts_used = 0
    control_ok = False
    for _ in range(attempts):
        attempts_used += 1
        measured = _measure(num_nodes, queries, tuples, generator, trace_out)
        modes = measured["modes"]
        baseline, off, on = modes["baseline"], modes["off"], modes["on"]
        if len({baseline["answers"], off["answers"], on["answers"]}) != 1:
            raise AssertionError(
                "observability changed the answer bag across modes: "
                f"baseline={baseline['answers']}, off={off['answers']}, "
                f"on={on['answers']}"
            )
        off_ratio = median(measured["off_ratios"])
        on_ratio = median(measured["on_ratios"])
        control_ok = control_band[0] <= off_ratio <= control_band[1]
        if baseline["publish_seconds"] < min_seconds:
            break  # the window can never validate — no point retrying
        if control_ok:
            break

    enforced = baseline["publish_seconds"] >= min_seconds and control_ok
    passed = (not enforced) or (off_ratio >= OFF_FLOOR and on_ratio >= ON_FLOOR)
    return {
        "num_nodes": num_nodes,
        "num_queries": num_queries,
        "num_tuples": num_tuples,
        "repeats": REPEATS,
        "smoke": smoke,
        "answers": int(baseline["answers"]),
        "modes": {"baseline": baseline, "off": off, "on": on},
        "gates": {
            "off_floor": OFF_FLOOR,
            "on_floor": ON_FLOOR,
            "off_over_baseline": off_ratio,
            "on_over_baseline": on_ratio,
            "off_ratio_rounds": measured["off_ratios"],
            "on_ratio_rounds": measured["on_ratios"],
            "min_seconds": min_seconds,
            "window_seconds": baseline["publish_seconds"],
            "control_ok": control_ok,
            "attempts": attempts,
            "attempts_used": attempts_used,
            "enforced": enforced,
            "passed": passed,
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes (correctness sweep only)"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero when an enforced overhead gate fails",
    )
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        help="dump the 'on' pass's spans to this JSONL file",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=DEFAULT_MIN_SECONDS,
        help="baseline window below which the gates are advisory",
    )
    parser.add_argument(
        "--attempts",
        type=int,
        default=DEFAULT_ATTEMPTS,
        help="re-measure this many times while the off control is noisy",
    )
    args = parser.parse_args(argv)

    report = run_bench(
        smoke=args.smoke,
        min_seconds=args.min_seconds,
        trace_out=args.trace_out,
        attempts=args.attempts,
    )
    gates = report["gates"]
    if gates["enforced"]:
        note = ""
    elif not gates["control_ok"]:
        note = " [advisory: off control outside band — host too noisy]"
    else:
        note = " [advisory: window too short]"
    print(
        f"observability overhead: off {gates['off_over_baseline']:.3f}x "
        f"(floor {gates['off_floor']}), on {gates['on_over_baseline']:.3f}x "
        f"(floor {gates['on_floor']}), window "
        f"{gates['window_seconds']:.3f}s, "
        f"attempt {gates['attempts_used']}/{gates['attempts']}" + note
    )
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True))
    print(f"wrote {args.output}")
    if args.trace_out is not None:
        print(f"wrote {args.trace_out}")
    if args.check and not gates["passed"]:
        print("observability overhead gate FAILED")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
