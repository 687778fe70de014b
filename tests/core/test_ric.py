"""Tests for RIC bookkeeping: rate tracking, candidate table, piggy-backing."""

from repro.core.ric import CandidateTable, RateTracker, RicEntry


class TestRateTracker:
    def test_cumulative_counting(self):
        tracker = RateTracker(window=None)
        for t in range(5):
            tracker.record("k", now=float(t))
        assert tracker.rate("k", now=100.0) == 5.0
        assert tracker.total("k") == 5
        assert tracker.rate("unknown", now=0.0) == 0.0

    def test_windowed_counting(self):
        tracker = RateTracker(window=10.0)
        tracker.record("k", now=0.0)
        tracker.record("k", now=5.0)
        tracker.record("k", now=12.0)
        assert tracker.rate("k", now=12.0) == 2.0   # 5.0 and 12.0 remain
        assert tracker.rate("k", now=30.0) == 0.0
        assert tracker.total("k") == 3

    def test_tracked_keys(self):
        tracker = RateTracker()
        tracker.record("a", 0.0)
        tracker.record("b", 0.0)
        assert sorted(tracker.tracked_keys()) == ["a", "b"]

    def test_max_keys_bounds_memory(self):
        """A million-distinct-key flood never holds more than ``max_keys``."""
        tracker = RateTracker(window=10.0, max_keys=8)
        for i in range(1000):
            tracker.record(f"k{i}", now=float(i))
            assert len(tracker) <= 8
        assert len(tracker) == 8
        assert tracker.evicted_keys == 992
        # Only the most recently recorded keys survive, in LRU order.
        assert tracker.tracked_keys() == [f"k{i}" for i in range(992, 1000)]

    def test_eviction_is_least_recently_recorded(self):
        tracker = RateTracker(max_keys=2)
        tracker.record("a", 0.0)
        tracker.record("b", 1.0)
        tracker.record("a", 2.0)   # refreshes "a": "b" is now the LRU key
        tracker.record("c", 3.0)   # evicts "b"
        assert sorted(tracker.tracked_keys()) == ["a", "c"]
        assert tracker.total("a") == 2
        assert tracker.evicted_keys == 1

    def test_evicted_key_reports_zero_then_recovers(self):
        tracker = RateTracker(window=100.0, max_keys=1)
        tracker.record("a", 0.0)
        tracker.record("b", 1.0)   # evicts "a" with its arrival history
        assert tracker.rate("a", now=1.0) == 0.0
        assert tracker.total("a") == 0
        # Arrivals for an evicted key start a fresh count.
        tracker.record("a", 2.0)
        assert tracker.total("a") == 1
        assert tracker.rate("a", now=2.0) == 1.0

    def test_unbounded_by_default(self):
        tracker = RateTracker()
        for i in range(100):
            tracker.record(f"k{i}", 0.0)
        assert len(tracker) == 100
        assert tracker.evicted_keys == 0


class TestRicEntry:
    def test_freshness(self):
        entry = RicEntry(key_text="k", rate=1.0, address="n", observed_at=10.0)
        assert entry.is_fresh(now=15.0, freshness=5.0)
        assert not entry.is_fresh(now=16.0, freshness=5.0)
        assert entry.is_fresh(now=1e9, freshness=None)


class TestCandidateTable:
    def entry(self, key="k", rate=1.0, address="n", observed_at=0.0):
        return RicEntry(
            key_text=key, rate=rate, address=address, observed_at=observed_at
        )

    def test_update_keeps_most_recent(self):
        table = CandidateTable()
        table.update(self.entry(rate=1.0, observed_at=1.0))
        table.update(self.entry(rate=9.0, observed_at=5.0))
        table.update(self.entry(rate=3.0, observed_at=2.0))  # older, ignored
        assert table.lookup("k", now=10.0).rate == 9.0

    def test_lookup_respects_freshness(self):
        table = CandidateTable(freshness=5.0)
        table.update(self.entry(observed_at=0.0))
        assert table.lookup("k", now=4.0) is not None
        assert table.lookup("k", now=6.0) is None
        assert table.hits == 1
        assert table.misses == 1

    def test_update_many_and_len(self):
        table = CandidateTable()
        table.update_many([self.entry(key="a"), self.entry(key="b")])
        assert len(table) == 2
