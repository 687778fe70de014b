"""Compare two ledger result files: ``compare.py PARENT.json CHANGE.json``.

One row per (end-to-end metric, workload) with a verdict:

* ``better``      every run of the change reads better than every run of the parent;
* ``worse``       the change's median is worse than the parent's by more than the
                  metric's bound;
* ``unresolved``  either side's inter-quartile spread is wider than the bound,
                  so the files cannot tell (run more repeats, do not widen bounds);
* ``within``      none of the above: no regression shown.

The bound is the one ``BENCHMARK.json`` fixes — sized for single runs of
different seeds, which is how the driver judges — unless both ledgers ran the
same seed and run length.  Then the inputs are identical, the tighter
:data:`SAME_INPUT_BOUNDS` apply, and a count that repeated exactly in both
files on the ``sim`` runtime may not worsen *at all*.

Exits 1 if any row is ``worse``.  A *gain* needs more than this file can
see: at least ten alternating parent/change pairs, nine tenths of them won,
and a median gap wider than the parent's inter-quartile spread (README).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[2]

#: Bounds between two ledgers of identical inputs — the issue's — where they
#: are tighter than the cross-seed, single-run ones of ``BENCHMARK.json``.
#: The counts' entries matter on ``asyncio`` only, where actor scheduling may
#: move a message; on ``sim`` they repeat exactly.
SAME_INPUT_BOUNDS = {
    "tuples_per_s": 0.10,
    "publish_p50_ms": 0.10,
    "publish_p95_ms": 0.15,
    "msgs_per_tuple": 0.01,
    "qpl_max_over_mean": 0.02,
    "setup_s": 0.15,
}


def _load(path: str) -> Dict[str, object]:
    with open(path, encoding="utf-8") as source:
        return json.load(source)


def verdict(parent: Dict[str, object], change: Dict[str, object], better: str,
            bound: float, exact: bool) -> str:
    """Judge one (metric, workload) pair from two ``{quartiles, samples}`` entries."""
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_mid, p_q3 = parent["quartiles"]
    c_q1, c_mid, c_q3 = change["quartiles"]
    worsening = sign * (c_mid - p_mid) / abs(p_mid) if p_mid else 0.0
    p_samples = [sign * value for value in parent["samples"]]
    c_samples = [sign * value for value in change["samples"]]
    if max(c_samples) < min(p_samples):
        return "better"
    repeats_exactly = len(set(p_samples)) == 1 and len(set(c_samples)) == 1
    if exact and repeats_exactly:
        return "worse" if worsening > 0 else "within"
    spread = max((p_q3 - p_q1) / abs(p_mid) if p_mid else 0.0,
                 (c_q3 - c_q1) / abs(c_mid) if c_mid else 0.0)
    if spread > bound:
        return "unresolved"
    return "worse" if worsening > bound else "within"


def compare(parent: Dict[str, object], change: Dict[str, object],
            spec: Dict[str, object]) -> List[Dict[str, object]]:
    """One row per (end-to-end metric, workload) present in both files."""
    same_inputs = all(
        parent["manifest"][key] == change["manifest"][key] for key in ("seed", "seconds")
    )
    rows = []
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in parent["end_to_end"] or name not in change["end_to_end"]:
            continue
        on_sim = parent["facts"][name]["runtime"] == "sim"
        for metric in spec["end_to_end"]:
            before = parent["end_to_end"][name][metric["name"]]
            after = change["end_to_end"][name][metric["name"]]
            bound = metric["bound"]
            if same_inputs:
                bound = SAME_INPUT_BOUNDS.get(metric["name"], bound)
            rows.append({
                "workload": name,
                "metric": metric["name"],
                "unit": metric["unit"],
                "parent": before["quartiles"][1],
                "change": after["quartiles"][1],
                "bound": bound,
                "verdict": verdict(before, after, metric["better"], bound,
                                   exact=same_inputs and on_sim),
            })
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    parent, change = _load(args[0]), _load(args[1])
    spec = _load(str(ROOT / "BENCHMARK.json"))
    for side, result in (("parent", parent), ("change", change)):
        manifest = result["manifest"]
        print(f"{side}: sha {manifest['git_sha']} python {manifest['python']} "
              f"cpus {manifest['cpu_count']} seed {manifest['seed']} "
              f"repeats {manifest['repeats']} seconds {manifest['seconds']} "
              f"calib {manifest['calib_ops_per_s']['quartiles'][1]:.0f} ops/s")
    rows = compare(parent, change, spec)
    for row in rows:
        delta = (row["change"] - row["parent"]) / abs(row["parent"]) if row["parent"] else 0.0
        print(f"{row['workload']:<22} {row['metric']:<24} {row['parent']:>12.4f} -> "
              f"{row['change']:>12.4f} {row['unit']:<6} {100 * delta:+7.2f} % "
              f"(bound {100 * row['bound']:.1f} %)  {row['verdict']}")
    worse = [row for row in rows if row["verdict"] == "worse"]
    print(f"{len(rows)} rows, {len(worse)} worse, "
          f"{sum(row['verdict'] == 'unresolved' for row in rows)} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
