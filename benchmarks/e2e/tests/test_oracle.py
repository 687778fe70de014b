from collections import Counter
from dataclasses import replace

import measure
import oracle
from workloads import make_inputs

from repro.core.reference import ReferenceEngine


def test_oracle_matches_reference_engine_on_a_short_stream(small_flood):
    inputs = make_inputs(small_flood, seed=5)
    rows = inputs.published(110)  # 40 warm-up calls and 110 more: 150 tuples
    reference = ReferenceEngine(inputs.catalog)
    ids = [reference.submit(query) for query in inputs.queries]
    for relation, values in rows:
        reference.publish(relation, values)
    expected = [Counter(reference.answers(query_id)) for query_id in ids]
    got = oracle.expected_answers(inputs.catalog, inputs.queries, rows, small_flood.window)
    assert sum(sum(bag.values()) for bag in got) > 100
    assert got == expected
    assert oracle.digest(got) == oracle.digest(expected)


def test_window_of_one_tuple_joins_nothing(small_flood):
    inputs = make_inputs(small_flood, seed=5)
    bags = oracle.expected_answers(inputs.catalog, inputs.queries, inputs.published(50), 1)
    assert not any(bags)


def test_compare_counts_missing_and_spurious():
    want = [Counter({(1, 2): 2, (3, 4): 1})]
    have = [Counter({(1, 2): 1, (5, 6): 1})]
    assert oracle.compare(want, have) == (3, 2, 1)
    assert oracle.digest(want) != oracle.digest(have)
    assert oracle.digest(want) == oracle.digest([Counter({(3, 4): 1, (1, 2): 2})])


def _floor_check(workload):
    inputs = make_inputs(workload, seed=3)
    setup = measure.set_up(workload, inputs)
    window = measure.run_window(setup, inputs.timed, workload.timed_calls, 0.0)
    check = measure.check_answers(workload, inputs, setup, window)
    setup.engine.close()
    return check


def test_per_tuple_publish_of_the_batch_stream_is_exact(small_batch):
    tuples = small_batch.timed_calls * small_batch.burst
    check = _floor_check(replace(small_batch, burst=1, warmup_calls=small_batch.window,
                                 timed_calls=tuples, tolerated_missing_share=0.0))
    assert check.expected > 500
    assert (check.missing, check.spurious, check.raised) == (0, 0, None)


def test_known_finding_publish_batch_loses_window_edge_answers(small_batch, capsys):
    """Recorded, not fixed: a burst under a tuple window drops answers whose
    span ends near the window edge (README, known finding).  The oracle must
    only ever see answers *missing* there, never spurious ones, and no more
    than the workload tolerates; a later bug fix makes ``missing`` zero and
    this test keeps passing."""
    check = _floor_check(small_batch)
    with capsys.disabled():
        print(f"\n[known finding] publish_batch, window {small_batch.window}, burst "
              f"{small_batch.burst}: {check.missing} of {check.expected} answers missing")
    assert check.spurious == 0 and check.raised is None
    assert check.correct
