"""Tests for QPL/SL load accounting."""

from repro.metrics.collectors import LoadTracker


class TestLoadTracker:
    def test_qpl_definition(self):
        tracker = LoadTracker()
        tracker.record_tuple_received("a")
        tracker.record_tuple_received("a")
        tracker.record_query_received("a")
        tracker.record_query_stored("a")  # storage, not QPL
        assert tracker.node("a").query_processing_load == 3
        assert tracker.total_query_processing_load == 3

    def test_storage_definition(self):
        tracker = LoadTracker()
        tracker.record_query_stored("a")
        tracker.record_tuple_stored("a")
        tracker.record_tuple_stored("a")
        assert tracker.node("a").storage_load == 3
        assert tracker.total_storage_load == 3

    def test_ranked_distributions(self):
        tracker = LoadTracker()
        for _ in range(5):
            tracker.record_tuple_received("busy")
        tracker.record_tuple_received("idle")
        assert tracker.ranked_query_processing_load() == [5, 1]
        tracker.record_tuple_stored("busy")
        assert tracker.ranked_storage_load() == [1, 0]

    def test_participation(self):
        tracker = LoadTracker()
        tracker.record_tuple_received("a")
        tracker.record_tuple_stored("b")  # no QPL
        assert tracker.participating_nodes() == 1

    def test_averages(self):
        tracker = LoadTracker()
        for _ in range(10):
            tracker.record_query_received("a")
        assert tracker.qpl_per_node(5) == 2.0
        assert tracker.qpl_per_node(0) == 0.0
        tracker.record_tuple_stored("a")
        assert tracker.storage_per_node(1) == 1.0

    def test_answers_counted(self):
        tracker = LoadTracker()
        tracker.record_answer("a")
        tracker.record_answer("a", count=3)
        assert tracker.node("a").answers_produced == 4
        assert tracker.node("b").answers_produced == 0

    def test_snapshot(self):
        tracker = LoadTracker()
        assert tracker.snapshot() == (0, 0)
        tracker.record_tuple_received("a")
        tracker.record_tuple_stored("a")
        tracker.record_query_received("b")
        assert tracker.snapshot() == (2, 1)
