"""The answer log against the ``list[Answer]`` it replaced.

A handle's :class:`AnswerLog` keeps answer values in one flat list, one stamp
per block of answers delivered alike, and one shared tuple per distinct
value.  Read as a sequence it must be indistinguishable from the list of
:class:`Answer` objects the handle used to keep — and it must never take
more memory than that list did.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.answers import INTERNED_PER_LOG, Answer, AnswerLog, QueryHandle
from repro.errors import AnswerIndexError, ReproError
from repro.sql.parser import parse_query

STAMPS = st.tuples(
    st.sampled_from([0.0, 1.0, 2.5]),
    st.sampled_from([1.0, 3.0]),
    st.sampled_from(["n1", "n2"]),
)
#: Delivered groups: values, a stamp, and whether the group repeats the
#: stamp of the group before it instead (as envelopes of one instant do).
GROUPS = st.lists(
    st.tuples(
        st.lists(st.tuples(st.integers(0, 4), st.sampled_from("ab")), max_size=6),
        STAMPS,
        st.booleans(),
    ),
    max_size=12,
)


def fill(groups):
    """The same deliveries into a handle's log and into a plain list."""
    handle = QueryHandle("q", parse_query("SELECT R.a FROM R"), "n0", 0.0)
    plain = []
    stamp = (0.0, 0.0, "n0")
    for values_list, fresh, repeat in groups:
        if not repeat:
            stamp = fresh
        for values in values_list:
            values = tuple(list(values))  # every delivery brings its own tuple
            handle.add_answer(values, stamp)
            plain.append(Answer("q", values, *stamp))
    return handle, plain


@settings(max_examples=300, deadline=None)
@given(GROUPS, st.data())
def test_the_log_reads_like_a_list_of_answers(groups, data):
    handle, plain = fill(groups)
    log = handle.answers
    size = len(plain)
    assert len(log) == handle.count == size
    assert [log[index] for index in range(-size, size)] == [
        plain[index] for index in range(-size, size)
    ]
    cut = data.draw(st.slices(size))
    assert log[cut] == plain[cut]
    assert list(log) == plain
    assert log == plain and plain == log
    assert (log == plain + [Answer("q", (9,), 0.0, 0.0, "n0")]) is False
    assert log == fill(groups)[0].answers
    assert handle.latest() == (plain[-1] if plain else None)
    assert log.values() == handle.values() == [answer.values for answer in plain]
    assert handle.distinct_values() == {answer.values for answer in plain}


@settings(max_examples=300, deadline=None)
@given(GROUPS)
def test_equal_values_share_one_tuple_and_a_stamp_is_kept_once_per_run(groups):
    handle, plain = fill(groups)
    first = {}
    for values in handle.values():
        assert first.setdefault(values, values) is values
    stamps = [(a.produced_at, a.delivered_at, a.producer) for a in plain]
    runs = sum(1 for i, stamp in enumerate(stamps) if i == 0 or stamp != stamps[i - 1])
    assert len(handle.answers._starts) == runs


def test_an_index_out_of_range_is_a_library_index_error():
    handle, _ = fill([([(1, "a")], (0.0, 1.0, "n1"), False)])
    for index in (1, -2):
        with pytest.raises(AnswerIndexError) as raised:
            handle.answers[index]
        assert isinstance(raised.value, IndexError)
        assert isinstance(raised.value, ReproError)
    assert fill([])[0].latest() is None


def test_an_unhashable_answer_is_kept_as_it_came():
    log = AnswerLog("q")
    answer = ([1, 2], 7)
    log.add(answer, (0.0, 1.0, "n1"))
    assert log[0].values is answer and log.values() == [answer]


# ---------------------------------------------------------------------------
# The intern table's bound, and what the log costs against list[Answer]
# ---------------------------------------------------------------------------

N = 100_000


def traced_bytes(build):
    """Bytes alive in what ``build`` returns, tuples it allocated included."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        return tracemalloc.get_traced_memory()[0] - before, kept
    finally:
        tracemalloc.stop()


def deliveries(distinct, per_block):
    """N answers over ``distinct`` values, a fresh stamp every ``per_block``."""
    stamps = []
    for position in range(N):
        if position % per_block == 0:
            stamp = (position + 0.5, position + 1.5, f"node-{position % 24}")
        stamps.append(stamp)
    return [(position % distinct, stamp) for position, stamp in enumerate(stamps)]


def log_of(answers):
    def build():
        log = AnswerLog("q")
        for key, stamp in answers:
            log.add((key, "v"), stamp)
        return log

    return build


def list_of(answers):
    """What a handle kept before the log: one Answer, one tuple per answer."""

    def build():
        return [Answer("q", (key, "v"), *stamp) for key, stamp in answers]

    return build


def test_all_distinct_answers_cost_no_more_than_a_list_of_answers():
    """The worst case: no value repeats, and every answer is its own block."""
    answers = deliveries(distinct=N, per_block=1)
    log_bytes, log = traced_bytes(log_of(answers))
    list_bytes, _ = traced_bytes(list_of(answers))
    assert len(log) == N and len(log._distinct) == INTERNED_PER_LOG
    assert log_bytes <= list_bytes


def test_answers_over_few_values_cost_under_a_fifth_of_a_list_of_answers():
    """``answer_flood``'s shape: 16 values, about 8 answers per delivered block."""
    answers = deliveries(distinct=16, per_block=8)
    log_bytes, log = traced_bytes(log_of(answers))
    list_bytes, _ = traced_bytes(list_of(answers))
    assert len(log) == N and len(log._distinct) == 16
    assert log_bytes < list_bytes / 5
