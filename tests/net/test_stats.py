"""Tests for traffic accounting."""

from repro.net.stats import TrafficStats


class TestTrafficStats:
    def test_record_send_and_route(self):
        stats = TrafficStats()
        stats.record_send("a")
        stats.record_route("b")
        assert stats.node("a").sent == 1
        assert stats.node("b").routed == 1
        assert stats.total_messages == 2

    def test_ric_subsets(self):
        stats = TrafficStats()
        stats.record_send("a", is_ric=True)
        stats.record_route("b", is_ric=True)
        stats.record_send("a", is_ric=False)
        assert stats.total_ric_messages == 2
        assert stats.node("a").ric_sent == 1
        assert stats.node("a").ric_total == 1
        assert stats.node("a").total == 2

    def test_record_path_charges_sender_and_forwarders(self):
        stats = TrafficStats()
        hops = stats.record_path("s", ["f1", "f2", "dest"])
        assert hops == 3
        assert stats.node("s").sent == 1
        assert stats.node("f1").routed == 1
        assert stats.node("f2").routed == 1
        assert stats.node("dest").total == 0
        assert stats.total_messages == 3

    def test_per_node_averages(self):
        stats = TrafficStats()
        for _ in range(10):
            stats.record_send("a")
        assert stats.messages_per_node(5) == 2.0
        assert stats.messages_per_node(0) == 0.0
        assert stats.ric_messages_per_node(5) == 0.0

    def test_snapshot(self):
        stats = TrafficStats()
        assert stats.snapshot() == (0, 0)
        stats.record_send("a", is_ric=True)
        stats.record_path("a", ["b", "c"])
        assert stats.snapshot() == (3, 1)

    def test_unknown_node_has_zero_counters(self):
        stats = TrafficStats()
        assert stats.node("ghost").total == 0
