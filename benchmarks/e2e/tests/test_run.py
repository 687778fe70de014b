import json
import re
from pathlib import Path

import compare
import measure
import run
import workloads
from workloads import WORKLOADS, make_inputs

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
EXACT = ("msgs_per_tuple", "answer_delay_mean_hops", "answer_delay_p95_hops",
         "qpl_max_over_mean", "answer_correct_share")


def test_same_seed_repeats_exactly(small_flood):
    first = measure.measure_end_to_end(small_flood, seed=4, seconds=0.9)
    again = measure.measure_end_to_end(small_flood, seed=4, seconds=0.9)
    assert first.check.correct
    assert measure.facts_mismatch(first.detail, again.detail) is None
    for key, value in first.detail.items():
        if key.startswith("floor_"):
            assert again.detail[key] == value, key
    for metric in EXACT:
        assert again.metrics[metric] == first.metrics[metric], metric
    assert first.metrics["tuples_per_s"] > 0 and first.metrics["setup_s"] > 0


def test_another_seed_changes_the_inputs_and_passes_the_oracle(small_flood, small_batch):
    for workload in (small_flood, small_batch):
        one, other = make_inputs(workload, 1), make_inputs(workload, 2)
        assert one.published(10) != other.published(10)
        assert set(one.timed) & set(other.timed)  # stretches of the same stream
        assert one.sql == other.sql
        results = [measure.measure_end_to_end(workload, seed, 0.9) for seed in (1, 2)]
        assert all(result.check.correct for result in results)
        assert results[0].detail["floor_answer_digest"] != results[1].detail["floor_answer_digest"]


def test_asyncio_delivers_the_same_bag_as_sim(small_flood):
    from dataclasses import replace
    sim = measure.measure_end_to_end(small_flood, seed=8, seconds=0.6)
    actors = measure.measure_end_to_end(replace(small_flood, runtime="asyncio"), 8, 0.6)
    assert actors.check.correct
    assert actors.detail["floor_answer_digest"] == sim.detail["floor_answer_digest"]


def test_a_call_is_charged_at_the_host_speed_around_it():
    # Three calls of one second; the host ran the probe kernel at twice the
    # reference speed before the first call and at the reference speed later.
    fast, reference = 2 * measure.REFERENCE_OPS_PER_S, measure.REFERENCE_OPS_PER_S
    timeline = measure.Timeline(seconds=[1.0, 1.0, 1.0],
                                probes=[(0, fast), (2, reference), (3, reference)])
    assert timeline.reference_seconds() == [1.5, 1.5, 1.0]
    assert timeline.host_ops_per_s == (fast + 2 * reference) / 3


def _last_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_run_prints_exactly_the_metrics_benchmark_json_names(capsys, monkeypatch,
                                                              small_flood):
    monkeypatch.setitem(workloads.BY_NAME, "answer_flood", small_flood)
    assert [w["name"] for w in SPEC["workloads"]] == [w.name for w in WORKLOADS]
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {w.name: w.why for w in WORKLOADS}
    for trace, declared in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
        assert run.main(["--workload", "answer_flood", "--seed", "3", "--seconds", "0.6",
                         "--trace", trace]) == 0
        result = _last_line(capsys)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: reading["unit"] for name, reading in result["metrics"].items()} == {
            metric["name"]: metric["unit"] for metric in declared}


def test_benchmark_json_keeps_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"] and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8 and len(SPEC["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"} and 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _entry(*samples):
    return {"quartiles": run.quartiles(list(samples)), "samples": list(samples)}


def test_compare_verdicts():
    judge = compare.verdict
    steady = _entry(100, 101, 99, 100, 100)
    assert judge(steady, _entry(101, 100, 102, 101, 100), "lower", 0.1, False) == "within"
    assert judge(steady, _entry(120, 121, 119, 120, 122), "lower", 0.1, False) == "worse"
    assert judge(steady, _entry(120, 121, 119, 120, 122), "higher", 0.1, False) == "better"
    assert judge(_entry(80, 100, 120, 90, 110), _entry(85, 100, 125, 95, 112),
                 "lower", 0.1, False) == "unresolved"
    exact = _entry(7.5, 7.5, 7.5)
    assert judge(exact, _entry(7.6, 7.6, 7.6), "lower", 0.1, True) == "worse"
    assert judge(exact, _entry(7.6, 7.6, 7.6), "lower", 0.1, False) == "within"
    assert judge(exact, _entry(7.5, 7.5, 7.5), "lower", 0.1, True) == "within"


def _ledger(seed, setup_s):
    entries = {metric["name"]: _entry(1.0, 1.0, 1.0) for metric in SPEC["end_to_end"]}
    entries["setup_s"] = _entry(*setup_s)
    return {"manifest": {"seed": seed, "seconds": 15.0},
            "facts": {"answer_flood": {"runtime": "sim"}},
            "end_to_end": {"answer_flood": entries}}


def test_same_inputs_are_compared_with_the_tighter_bounds():
    def row(parent_seed, change_seed):
        rows = compare.compare(_ledger(parent_seed, (1.00, 1.01, 0.99)),
                               _ledger(change_seed, (1.20, 1.21, 1.19)), SPEC)
        return next(row for row in rows if row["metric"] == "setup_s")

    declared = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert compare.SAME_INPUT_BOUNDS["setup_s"] < 0.2 < declared
    assert (row(901, 901)["bound"], row(901, 901)["verdict"]) == (0.15, "worse")
    assert (row(901, 902)["bound"], row(901, 902)["verdict"]) == (declared, "within")


def test_a_run_that_fails_the_oracle_exits_non_zero(capsys, monkeypatch, small_flood):
    monkeypatch.setitem(workloads.BY_NAME, "answer_flood", small_flood)
    lose_one = measure.check_answers

    def lossy(*args):
        check = lose_one(*args)
        check.missing += 1
        return check

    monkeypatch.setattr(measure, "check_answers", lossy)
    assert run.main(["--workload", "answer_flood", "--seed", "3", "--seconds", "0.4"]) == 1
    result = _last_line(capsys)
    assert result["correct"] is False
    assert result["metrics"]["answer_correct_share"]["value"] < 1
