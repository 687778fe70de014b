"""Tests for RIC bookkeeping: rate tracking, candidate table, piggy-backing."""

import random

from repro.core.ric import REASK_FROM, CandidateTable, RateTracker, RicEntry, arc_holds


class TestRateTracker:
    def test_cumulative_counting(self):
        tracker = RateTracker()
        for _ in range(5):
            tracker.record("k")
        assert tracker.rate("k") == 5.0
        assert tracker.rate("unknown") == 0.0

    def test_tracked_keys(self):
        tracker = RateTracker()
        tracker.record("a")
        tracker.record("b")
        assert sorted(tracker.tracked_keys()) == ["a", "b"]

    def test_max_keys_bounds_memory(self):
        """A million-distinct-key flood never holds more than ``max_keys``."""
        tracker = RateTracker(max_keys=8)
        for i in range(1000):
            tracker.record(f"k{i}")
            assert len(tracker) <= 8
        assert len(tracker) == 8
        assert tracker.evicted_keys == 992
        # Only the most recently recorded keys survive, in LRU order.
        assert tracker.tracked_keys() == [f"k{i}" for i in range(992, 1000)]

    def test_eviction_is_least_recently_recorded(self):
        tracker = RateTracker(max_keys=2)
        tracker.record("a")
        tracker.record("b")
        tracker.record("a")   # refreshes "a": "b" is now the LRU key
        tracker.record("c")   # evicts "b"
        assert sorted(tracker.tracked_keys()) == ["a", "c"]
        assert tracker.rate("a") == 2.0
        assert tracker.evicted_keys == 1

    def test_evicted_key_reports_zero_then_recovers(self):
        tracker = RateTracker(max_keys=1)
        tracker.record("a")
        tracker.record("b")   # evicts "a" with its count
        assert tracker.rate("a") == 0.0
        # Arrivals for an evicted key start a fresh count.
        tracker.record("a")
        assert tracker.rate("a") == 1.0

    def test_default_bound_is_the_engine_nodes_bound(self):
        tracker = RateTracker()
        assert tracker.max_keys == 65536
        for i in range(65536 + 1):
            tracker.record(f"k{i}")
        assert len(tracker) == 65536
        assert tracker.evicted_keys == 1
        assert tracker.rate("k0") == 0.0

    def test_unbounded_by_default(self):
        tracker = RateTracker()
        for i in range(100):
            tracker.record(f"k{i}")
        assert len(tracker) == 100
        assert tracker.evicted_keys == 0


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
        assert table.lookup("k").rate == 9.0

    def test_an_entry_is_used_whatever_its_age(self):
        table = CandidateTable()
        assert table.lookup("k") is None
        table.update(self.entry(observed_at=0.0))
        assert table.lookup("k") is not None
        assert table.hits == 1
        assert table.misses == 1

    def test_update_many_and_len(self):
        table = CandidateTable()
        table.update_many([self.entry(key="a"), self.entry(key="b")])
        assert len(table) == 2

    def test_an_entry_in_use_is_asked_again_at_every_doubling(self):
        """Uses 8, 16, 32, ... miss; a newer entry does not restart the count."""
        table = CandidateTable()
        table.update(self.entry(observed_at=0.0))
        missed = []
        for use in range(1, 4 * REASK_FROM + 1):
            if table.lookup("k") is None:
                missed.append(use)
                table.update(self.entry(rate=float(use), observed_at=float(use)))
        assert missed == [REASK_FROM, 2 * REASK_FROM, 4 * REASK_FROM]
        assert table.misses == 3 and table.hits == 4 * REASK_FROM - 3
        assert table.lookup("k").rate == 4.0 * REASK_FROM

    def test_keys_used_together_are_asked_again_together(self):
        """One chain reads the candidates of a recurring decision at one time."""
        table = CandidateTable()
        table.update_many([self.entry(key="a"), self.entry(key="b")])
        for _ in range(REASK_FROM - 1):
            assert table.lookup("a") is not None
            assert table.lookup("b") is not None
        assert table.lookup("a") is None and table.lookup("b") is None

    def test_a_miss_left_unanswered_is_served_by_the_old_entry(self):
        """A question the strategy spares leaves the entry as good as before."""
        table = CandidateTable()
        table.update(self.entry(rate=2.0))
        for _ in range(REASK_FROM - 1):
            table.lookup("k")
        assert table.lookup("k") is None
        assert table.lookup("k").rate == 2.0

    def test_dropped_entries_take_their_use_counts_along(self):
        table = CandidateTable()
        table.update_many([self.entry(key="a", address="x"), self.entry(key="b")])
        for _ in range(REASK_FROM - 1):
            table.lookup("a"), table.lookup("b")
        table.invalidate_address("x")
        table.update(self.entry(key="a", address="y"))
        assert table.lookup("a") is not None  # use 1 of a new count
        table.clear_entries()
        table.update(self.entry(key="b"))
        assert table.lookup("b") is not None


class TestArcs:
    """The arc cache: which reporter owns the arc an identifier lies on."""

    def entry(self, address, arc, observed_at=0.0, key=None):
        return RicEntry(
            key_text=key or f"about-{address}-{observed_at}",
            rate=1.0,
            address=address,
            observed_at=observed_at,
            arc=arc,
        )

    def test_arc_holds_follows_chords_ownership_rule(self):
        assert arc_holds((10, 20), 20) and arc_holds((10, 20), 11)
        assert not arc_holds((10, 20), 10) and not arc_holds((10, 20), 21)
        # Across zero, and the single node's whole circle.
        assert all(arc_holds((90, 5), identifier) for identifier in (95, 0, 5))
        assert not arc_holds((90, 5), 6) and not arc_holds((90, 5), 90)
        assert all(arc_holds((7, 7), identifier) for identifier in (0, 7, 8, 99))

    def test_owner_of_names_the_reporter_whose_arc_holds_the_identifier(self):
        table = CandidateTable()
        assert table.owner_of(15) is None
        table.update_many([
            self.entry("a", (10, 20)),
            self.entry("b", (40, 50)),
            self.entry("w", (90, 5)),
        ])
        assert [table.owner_of(i) for i in (11, 20, 45, 95, 0, 5)] == [
            "a", "a", "b", "w", "w", "w",
        ]
        # Arcs nobody reported, and the open start of one that was.
        assert [table.owner_of(i) for i in (10, 30, 51, 90, 6)] == [None] * 5

    def test_an_entry_without_an_arc_teaches_none(self):
        table = CandidateTable()
        table.update(self.entry("a", None))
        assert len(table) == 1 and not table._arc_of and table.owner_of(15) is None

    def test_a_newer_arc_evicts_every_arc_it_overlaps(self):
        table = CandidateTable()
        table.update_many([
            self.entry("a", (10, 20), 1.0), self.entry("b", (20, 30), 1.0),
            self.entry("c", (30, 40), 1.0), self.entry("d", (40, 50), 1.0),
        ])
        # "n" joined at 35 and then moved to 45, as "d" sees it at time 5.
        table.update(self.entry("n", (25, 45), 5.0))
        assert table._arc_of == {
            "a": (10, 20), "n": (25, 45),
        }
        assert table._arc_ends == [20, 45] and table._arc_owners == ["a", "n"]
        assert table.owner_of(22) is None and table.owner_of(47) is None

    def test_a_stale_arc_does_not_come_back_over_a_newer_one(self):
        """Piggy-backed entries stamped before a join keep arriving after it."""
        table = CandidateTable()
        table.update(self.entry("s", (10, 50), 1.0))
        table.update(self.entry("b", (10, 30), 5.0))  # "b" joined, splitting "s"
        assert table.owner_of(20) == "b" and table.owner_of(40) is None
        table.update(self.entry("s", (10, 50), 2.0, key="late"))
        assert table.owner_of(20) == "b" and table.owner_of(40) is None
        table.update(self.entry("s", (30, 50), 6.0))
        assert table.owner_of(40) == "s"
        # ...nor over a newer arc of its own reporter.
        table.update(self.entry("s", (10, 50), 2.0, key="later still"))
        assert table.owner_of(20) == "b" and table._arc_of["s"] == (30, 50)

    def test_one_arc_per_reporter_the_newest(self):
        table = CandidateTable()
        table.update(self.entry("a", (10, 20), 1.0))
        table.update(self.entry("a", (10, 15), 2.0))  # its id moved back
        assert table._arc_ends == [15] and table.owner_of(18) is None
        table.update(self.entry("a", (90, 15), 3.0))  # its predecessor left
        assert table._arc_ends == [15] and table.owner_of(95) == "a"

    def test_invalidate_address_and_clear_drop_the_arcs_with_the_entries(self):
        table = CandidateTable()
        table.update_many([self.entry("a", (10, 20)), self.entry("b", (40, 50))])
        assert table.invalidate_address("a") == 1
        assert table.owner_of(15) is None and table.owner_of(45) == "b"
        assert table._arc_ends == [50] and table._arc_owners == ["b"]
        table.clear()
        assert table.owner_of(45) is None
        assert not table._arc_of and not table._arc_ends and not table._arc_owners

    def test_never_more_arcs_than_disjoint_reporters(self):
        """Whatever order observations of a changing ring arrive in."""
        rng = random.Random(3)
        table = CandidateTable()
        for step in range(400):
            start = rng.randrange(1000)
            arc = (start, (start + rng.randrange(1, 300)) % 1000)
            table.update(self.entry(f"n{rng.randrange(12)}", arc, float(step)))
            arcs = list(table._arc_of.values())
            assert len(arcs) <= 12
            assert table._arc_ends == sorted(end for _, end in arcs)
            for identifier in range(0, 1000, 7):
                holders = [arc for arc in arcs if arc_holds(arc, identifier)]
                assert len(holders) <= 1
                owner = table.owner_of(identifier)
                assert (owner is not None) == bool(holders)
