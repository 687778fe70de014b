import measure
import tracing

from repro.data.backends import make_store
from repro.data.tuples import Tuple


def test_self_time_is_duration_minus_children(monkeypatch):
    clock = iter([
        0.000,          # parent starts
        0.002, 0.005,   # first child: 3 ms
        0.006, 0.009,   # second child: 3 ms
        0.010,          # parent ends: 10 ms
    ])
    monkeypatch.setattr(tracing, "perf_counter", lambda: next(clock))
    recorder = tracing.Recorder()
    child = recorder.wrap("child", lambda: None)
    parent = recorder.wrap("parent", lambda: (child(), child()))
    recorder.keep_for = 7
    parent()
    calls, total, self_s = recorder.spans["parent"]
    assert (calls, round(total, 6), round(self_s, 6)) == (1, 0.010, 0.004)
    assert recorder.spans["child"][0] == 2
    assert round(recorder.spans["child"][2], 6) == 0.006
    # Sampled records: children name the parent's span id, all share the publish index.
    by_name = {}
    for name, start, end, span, parent_id, publish in recorder.records:
        by_name.setdefault(name, []).append((span, parent_id, publish))
    (parent_span, root, publish), = by_name["parent"]
    assert (root, publish) == (0, 7)
    assert [entry[1:] for entry in by_name["child"]] == [(parent_span, 7)] * 2


def test_span_closes_when_the_wrapped_call_raises():
    recorder = tracing.Recorder()

    def boom():
        raise KeyError("x")

    wrapped = recorder.wrap("boom", boom)
    try:
        wrapped()
    except KeyError:
        pass
    assert recorder.spans["boom"][0] == 1 and not recorder._stack


def test_wrappers_are_fully_removed():
    targets = tracing._targets("sim", "sqlite")
    before = [(owner, name, vars(owner).get(name)) for owner, name, _, _ in targets]
    undo = tracing.install(tracing.Recorder(), "sim", "sqlite")
    assert all(hasattr(getattr(owner, name), "__wrapped__") for owner, name, _, _ in targets)
    tracing.uninstall(undo)
    assert [(owner, name, vars(owner).get(name)) for owner, name, _, _ in targets] == before


def test_store_probes_are_counted_once_each_whatever_shape_the_answer_has():
    recorder = tracing.Recorder()
    undo = tracing.install(recorder, "sim", "memory")
    try:
        store = make_store("memory")
        store.add_batch([("R.a=1", Tuple("R", (1, 2), sequence=1), 0.0),
                         ("R.a=2", Tuple("R", (2, 3), sequence=2), 0.0)])
        assert set(store.tuples_for_prefixes(["R.a=1", "S."])) == {"R.a=1", "S."}  # a dict
        assert len(store.match_batch([("key", "R.a=2"), ("prefix", "R."), ("key", "x")])) == 3
        assert store.tuples_for_key("nothing") == []
        store.close()
    finally:
        tracing.uninstall(undo)
    # Calls a store makes to itself while answering (add_batch -> add,
    # tuples_for_prefixes -> match_batch -> tuples_for_prefix) stay inside
    # the span that is open.
    assert recorder.spans["data.add"][0] == 1
    assert recorder.spans["data.probe"][0] == 3
    assert recorder.counters == {"data.probes": 6, "data.probe_hits": 3}


def test_traced_pass_reproduces_the_untraced_run(small_flood):
    plain = measure.measure_end_to_end(small_flood, seed=11, seconds=0.9)
    traced = measure.measure_per_layer(small_flood, seed=11)
    assert plain.check.correct and traced.check.correct, traced.check.raised
    for fact in ("floor_calls", "floor_messages", "floor_deliveries", "floor_answers",
                 "floor_answer_digest"):
        assert traced.detail[fact] == plain.detail[fact], fact
    layers = traced.metrics
    assert layers["core.engine.publish_calls"] == plain.detail["floor_calls"]
    assert layers["core.engine.answers_collected"] == plain.detail["floor_answers"]
    assert layers["net.post_calls"] >= plain.detail["floor_deliveries"]
    assert 0.9 < layers["bench.self_time_coverage"] <= 1.0
    assert layers["sql.parse_calls"] == small_flood.num_queries
