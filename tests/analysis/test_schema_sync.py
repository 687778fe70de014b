"""The one guard of the versioned result format's metric keys.

``RJoinEngine.metrics_summary`` reports every :class:`ChurnStats` field, the
per-node counters and the declared histograms under their own names; this
test pins the dictionary an actual engine produces against the declared
:data:`~repro.metrics.serialize.SUMMARY_SCHEMA`, in both directions.
Adding a counter therefore takes one ``ChurnStats`` field plus one schema
entry, and a missing one fails here.
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import fields

from repro.core.config import RJoinConfig
from repro.core.engine import RJoinEngine
from repro.data.schema import Catalog
from repro.metrics.collectors import ChurnStats
from repro.metrics.serialize import RESULT_SCHEMA_VERSION, SUMMARY_SCHEMA


def _engine(**overrides) -> RJoinEngine:
    catalog = Catalog()
    catalog.add_relation("R", ["a", "b"])
    catalog.add_relation("S", ["c", "d"])
    return RJoinEngine(RJoinConfig(num_nodes=8, seed=11, **overrides), catalog=catalog)


def test_schema_declares_no_duplicates():
    assert len(SUMMARY_SCHEMA) == len(set(SUMMARY_SCHEMA))


def test_runtime_summary_matches_declared_schema():
    engine = _engine()
    engine.publish("R", {"a": "1", "b": "2"})
    summary = engine.metrics_summary()
    assert set(summary) == set(SUMMARY_SCHEMA)


def test_every_churn_counter_surfaces_under_its_own_name():
    # A join, a leave, a crash, an id-movement round and a retraction, with
    # state on the ring for each of them to move, lose or purge.
    engine = _engine(id_movement=True, rebalance_every_tuples=10_000)
    handle = engine.submit("SELECT R.a, S.d FROM R, S WHERE R.b = S.c")
    engine.submit("SELECT R.a FROM R, S WHERE R.b = S.c AND S.d = 3")
    for value in range(12):
        engine.publish("R", (value, value % 4))
        engine.publish("S", (value % 4, value))
    engine.add_node()
    engine.remove_node(graceful=True)
    engine.crash_node()
    engine.rebalance()
    engine.remove_query(handle.query_id)

    churn = engine.churn
    assert churn.joins == churn.leaves == churn.crashes == 1
    assert churn.queries_removed == 1 and churn.records_retracted > 0
    assert churn.records_rehomed > 0 and churn.records_lost > 0
    assert churn.queries_triggered > 0
    summary = engine.metrics_summary()
    for field in fields(ChurnStats):
        assert field.name in SUMMARY_SCHEMA
        assert summary[field.name] == float(getattr(churn, field.name))


def test_serialize_imports_first_in_a_fresh_interpreter():
    # Regression: serialize -> experiments -> parallel used to be a cycle
    # that crashed whenever metrics.serialize was the *first* repro import.
    proc = subprocess.run(
        [sys.executable, "-c", "import repro.metrics.serialize"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_schema_version_is_bumped_for_the_declared_schema():
    # The declared key set landed with schema v5; loading older files stays
    # supported, but writers must stamp the current version.
    assert RESULT_SCHEMA_VERSION >= 5
