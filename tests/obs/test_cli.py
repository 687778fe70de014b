"""The ``python -m repro.obs`` CLI over a real recorded trace.

Each test drives a tiny ``observability="on"`` run, dumps its spans and
exercises the summarize/convert subcommands on the artifact — the same
round trip a user performs on a trace file CI uploaded.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.__main__ import main as umbrella_main
from repro.core.config import RJoinConfig
from repro.core.engine import RJoinEngine
from repro.obs.cli import critical_path, main as obs_main
from repro.obs.trace import Span, load_spans
from repro.workload.generator import WorkloadGenerator, WorkloadSpec


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    """A JSONL trace from a small observability-on run."""
    spec = WorkloadSpec(
        num_relations=3,
        attributes_per_relation=3,
        value_domain=4,
        join_arity=2,
        seed=77,
    )
    generator = WorkloadGenerator(spec)
    engine = RJoinEngine(RJoinConfig(num_nodes=8, seed=7, observability="on"))
    engine.register_catalog(generator.catalog)
    for query in generator.generate_queries(4):
        engine.submit(query)
    for generated in generator.generate_tuples(12):
        engine.publish(generated.relation, generated.values)
    path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    count = engine.write_trace(str(path))
    engine.close()
    assert count > 0
    return path


class TestSummarize:
    def test_reports_span_totals_and_critical_paths(self, trace_file):
        out = io.StringIO()
        assert obs_main(["summarize", str(trace_file)], out=out) == 0
        text = out.getvalue()
        spans = load_spans(str(trace_file))
        assert f"{len(spans)} spans" in text
        assert "hop breakdown by message kind:" in text
        # Answers per answer envelope, straight from the spans' weights.
        answers = [span for span in spans if span.name == "AnswerMessage"]
        per_envelope = sum(span.weight for span in answers) / len(answers)
        (row,) = [line for line in text.splitlines() if "AnswerMessage" in line
                  and "deliveries" in line]
        assert f"{per_envelope:.2f} per envelope" in row
        assert "RIC joined" in row and row.endswith("misdirected")
        assert "critical path:" in text
        assert "slowest" in text

    def test_ric_columns_sum_the_spans_per_kind(self, tmp_path):
        """Joined and spared questions are no deliveries: the columns read them
        off the spans whose handlers joined or spared them.  Direct and
        misdirected are said of the delivery itself, whatever its kind: it
        came in one hop on a cached arc, and (of those) to a node that had to
        pass it on."""
        def span(span_id, name, ric_joined, arc_direct=0, arc_misdirected=0,
                 ric_spared=0):
            return Span(trace_id="pub-1", span_id=span_id, parent_id=None,
                        name=name, node="node-0", start=1.0, end=1.0,
                        sent_at=0.0, hops=1, hop=1, ric_joined=ric_joined,
                        ric_spared=ric_spared,
                        arc_direct=arc_direct, arc_misdirected=arc_misdirected)

        path = tmp_path / "joined.jsonl"
        spans = [span(1, "NewTupleMessage", 3, 1), span(2, "NewTupleMessage", 4, 1),
                 span(3, "NewTupleMessage", 0, ric_spared=2),
                 span(4, "EvalMessage", 0, ric_spared=5),
                 span(5, "RicRequestMessage", 0, 1, 1)]
        path.write_text("".join(json.dumps(s.to_dict()) + "\n" for s in spans))
        out = io.StringIO()
        assert obs_main(["summarize", str(path)], out=out) == 0
        rows = {line.split()[0]: line for line in out.getvalue().splitlines()
                if "deliveries" in line}
        ending = (
            "{:>6} RIC joined {:>6} spared {:>6} direct {:>4} misdirected".format
        )
        assert rows["NewTupleMessage"].endswith(ending(7, 2, 2, 0))
        assert rows["EvalMessage"].endswith(ending(0, 5, 0, 0))
        assert rows["RicRequestMessage"].endswith(ending(0, 0, 1, 1))

    def test_top_must_be_positive(self, trace_file):
        assert obs_main(["summarize", str(trace_file), "--top", "0"]) == 1

    def test_missing_trace_file_is_a_clean_error(self, tmp_path):
        assert obs_main(["summarize", str(tmp_path / "absent.jsonl")]) == 1

    def test_empty_trace_is_reported_not_crashed(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = io.StringIO()
        assert obs_main(["summarize", str(empty)], out=out) == 0
        assert "empty trace" in out.getvalue()


class TestConvert:
    def test_writes_loadable_chrome_trace(self, trace_file, tmp_path):
        output = tmp_path / "chrome.json"
        out = io.StringIO()
        code = obs_main(["convert", str(trace_file), "--output", str(output)], out=out)
        assert code == 0
        payload = json.loads(output.read_text())
        spans = load_spans(str(trace_file))
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == len(spans)
        assert "perfetto" in out.getvalue()


class TestUmbrellaDispatch:
    def test_python_m_repro_obs_reaches_the_cli(self, trace_file):
        assert umbrella_main(["obs", "summarize", str(trace_file)]) == 0


class TestCriticalPath:
    def test_walks_parent_links_root_first(self, trace_file):
        spans = load_spans(str(trace_file))
        by_trace = {}
        for span in spans:
            by_trace.setdefault(span.trace_id, []).append(span)
        multi = max(by_trace.values(), key=len)
        path = critical_path(multi)
        assert path[0].parent_id is None
        for parent, child in zip(path, path[1:]):
            assert child.parent_id == parent.span_id
