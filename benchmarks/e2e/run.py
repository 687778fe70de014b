"""The end-to-end ledger: what one published tuple costs, and in which layer.

Two ways to call it::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py [--seed 901] [--repeats 3] [--seconds S]

The first is one run of one workload in this process; its last output line
is the JSON object ``BENCHMARK.json``'s contract asks for (``--trace 0``:
the end-to-end metrics, ``--trace 1``: the per-layer metrics of a traced
pass).  The second is the whole ledger: every (workload, repeat) in a fresh
subprocess, never two at once, repeats interleaved round-robin across
workloads so slow host drift hits all alike, then one traced run per
workload; it prints every metric's median with quartiles and sample count
and writes a result file with a run manifest for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import quantiles
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

DETAIL_PREFIX = "detail: "
#: The host probe moving by more than this within one invocation means the
#: host changed speed under the measurement.
HOST_DRIFT = 0.10


def load_spec() -> Dict[str, object]:
    """``BENCHMARK.json``: the names, units, directions and bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as source:
        return json.load(source)


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` (a single sample is its own quartiles)."""
    if len(values) < 2:
        return [values[0]] * 3
    return list(quantiles(values, n=4))


def metric_line(workload: str, name: str, value: float, unit: str,
                traced_window_s: Optional[float] = None) -> str:
    """One printed metric; self times also as a share of the traced timed window."""
    line = f"{workload:<22} {name:<32} {value:>16.6f} {unit}"
    if traced_window_s and unit == "s" and not name.startswith(("bench.", "sql.")):
        line += f"  ({100 * value / traced_window_s:5.1f} % of the traced window)"
    return line


def run_one(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    """One run in this process; prints metrics, a detail line and the result line."""
    import measure
    from workloads import BY_NAME

    spec = load_spec()
    workload = BY_NAME[workload_name]
    if trace:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload.name}-{seed}.jsonl"
        result = measure.measure_per_layer(workload, seed, str(spans_path))
        declared = spec["per_layer"]
    else:
        result = measure.measure_end_to_end(workload, seed, seconds)
        declared = spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(units) != set(result.metrics):
        raise SystemExit(
            "BENCHMARK.json and run.py disagree on the metrics: "
            f"{sorted(set(units) ^ set(result.metrics))}"
        )
    for name, value in result.metrics.items():
        print(metric_line(workload.name, name, value, units[name],
                          result.detail.get("traced_wall_s")))
    drift = result.detail["host_drift"]
    if abs(drift) > HOST_DRIFT:
        print(f"WARNING: host speed moved {100 * drift:+.1f} % during the timed window "
              "(host probe, second half vs first half)")
    check = result.check
    if not check.correct:
        print(f"INCORRECT: {check.missing} missing, {check.spurious} spurious of "
              f"{check.expected} expected answers; raised: {check.raised}")
    elif check.missing:
        print(f"KNOWN FINDING: {check.missing} of {check.expected} expected answers "
              f"missing, none spurious (publish_batch under a tuple window, see README; "
              f"tolerated up to {100 * check.tolerated_missing_share:.1f} %)")
    print(DETAIL_PREFIX + json.dumps(result.detail, sort_keys=True))
    print(json.dumps({
        "correct": check.correct,
        "attempted": check.calls,
        "failed": check.failed_calls,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result.metrics.items()
        },
    }))
    return 0 if check.correct else 1


def _child(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, object]:
    """Run one workload in a fresh interpreter; returns its result and detail."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} (trace {trace}) failed (exit code {done.returncode})")
    detail = next(line for line in reversed(lines) if line.startswith(DETAIL_PREFIX))
    return {"result": json.loads(lines[-1]),
            "detail": json.loads(detail[len(DETAIL_PREFIX):])}


def _must_repeat(first: Dict[str, object], other: Dict[str, object]) -> None:
    import measure

    mismatch = measure.facts_mismatch(first, other)
    if mismatch:
        raise SystemExit(mismatch)


def _git_sha() -> Optional[str]:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None  # a checkout without git still measures
    return done.stdout.strip()


def run_ledger(seed: int, repeats: int, seconds: float, output: Optional[Path]) -> int:
    """Every workload ``repeats`` times plus one traced run each; prints and saves."""
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    samples: Dict[str, Dict[str, List[float]]] = {name: {} for name in names}
    facts: Dict[str, Dict[str, object]] = {}
    raw: Dict[str, Dict[str, List[float]]] = {name: {} for name in names}
    host_speeds: List[float] = []
    for repeat in range(repeats):
        for name in names:
            print(f"[{repeat + 1}/{repeats}] {name}", file=sys.stderr)
            child = _child(name, seed, seconds, 0)
            for metric, reading in child["result"]["metrics"].items():
                samples[name].setdefault(metric, []).append(reading["value"])
            detail = child["detail"]
            for metric, value in detail["raw"].items():
                raw[name].setdefault(metric, []).append(value)
            host_speeds.append(detail["host_ops_per_s"])
            _must_repeat(facts.setdefault(name, detail), detail)
    layers: Dict[str, Dict[str, float]] = {}
    traced_windows: Dict[str, float] = {}
    for name in names:
        print(f"[traced] {name}", file=sys.stderr)
        child = _child(name, seed, seconds, 1)
        layers[name] = {metric: reading["value"]
                        for metric, reading in child["result"]["metrics"].items()}
        traced_windows[name] = child["detail"]["traced_wall_s"]
        host_speeds.append(child["detail"]["host_ops_per_s"])
        _must_repeat(facts[name], child["detail"])

    units = {metric["name"]: metric["unit"]
             for metric in spec["end_to_end"] + spec["per_layer"]}
    end_to_end = {
        name: {metric: {"quartiles": quartiles(values), "samples": values}
               for metric, values in by_metric.items()}
        for name, by_metric in samples.items()
    }
    print(f"\nEnd to end (median [q1, q3], n = {repeats}; untraced, observability off; "
          "times in reference seconds, raw readings in brackets)")
    for name in names:
        for metric, entry in end_to_end[name].items():
            q1, mid, q3 = entry["quartiles"]
            line = (f"{name:<22} {metric:<24} {mid:>14.4f} [{q1:.4f}, {q3:.4f}] "
                    f"{units[metric]} n={repeats}")
            if metric in raw[name]:
                raw_q1, raw_mid, raw_q3 = quartiles(raw[name][metric])
                line += f"  (raw {raw_mid:.4f} [{raw_q1:.4f}, {raw_q3:.4f}])"
            print(line)
    print("\nPer layer (one traced run per workload)")
    for name in names:
        for metric, value in layers[name].items():
            print(metric_line(name, metric, value, units[metric], traced_windows[name]))
    calib_q1, calib_mid, calib_q3 = quartiles(host_speeds)
    spread = (calib_q3 - calib_q1) / calib_mid
    print(f"\nbench.calib_ops_per_s {calib_mid:.0f} [{calib_q1:.0f}, {calib_q3:.0f}] 1/s "
          f"n={len(host_speeds)}")
    if spread > HOST_DRIFT:
        print(f"WARNING: host speed moved {100 * spread:.1f} % (inter-quartile) during "
              "this invocation; its raw timings mix a slow and a fast host")
    if (facts["asyncio_answer_flood"]["floor_answer_digest"]
            != facts["answer_flood"]["floor_answer_digest"]):
        raise SystemExit("asyncio_answer_flood's answer bag differs from answer_flood's")

    manifest = {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "repeats": repeats,
        "seconds": seconds,
        "calib_ops_per_s": {"quartiles": [calib_q1, calib_mid, calib_q3],
                            "samples": host_speeds},
    }
    if output is None:
        OUT.mkdir(exist_ok=True)
        sha = (manifest["git_sha"] or "nogit")[:10]
        output = OUT / f"ledger-{sha}-seed{seed}.json"
    with open(output, "w", encoding="utf-8") as sink:
        json.dump({"manifest": manifest, "end_to_end": end_to_end, "raw": raw,
                   "per_layer": layers, "traced_window_s": traced_windows,
                   "facts": facts}, sink, indent=1, sort_keys=True)
    print(f"\nwrote {output}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        help="run this one workload in-process (default: the whole ledger)")
    parser.add_argument("--seed", type=int, default=901)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="length of one timed window (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced pass, per-layer metrics (needs --workload)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="untraced runs per workload in ledger mode")
    parser.add_argument("--output", type=Path,
                        help="ledger result file (default: benchmarks/e2e/out/…)")
    args = parser.parse_args(argv)
    if args.workload is not None:
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    return run_ledger(args.seed, args.repeats, args.seconds, args.output)


if __name__ == "__main__":
    sys.exit(main())
