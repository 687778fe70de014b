"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.net.messages import Envelope, Message
from repro.net.simulator import SimulationKernel


class TestScheduling:
    def test_events_run_in_time_order(self):
        kernel = SimulationKernel()
        order = []
        kernel.schedule_at(5.0, order.append, "late")
        kernel.schedule_at(1.0, order.append, "early")
        kernel.schedule_at(3.0, order.append, "middle")
        kernel.drain()
        assert order == ["early", "middle", "late"]

    def test_ties_broken_by_insertion_order(self):
        kernel = SimulationKernel()
        order = []
        kernel.schedule_at(2.0, order.append, "first")
        kernel.schedule_at(2.0, order.append, "second")
        kernel.drain()
        assert order == ["first", "second"]

    def test_schedule_in_relative_delay(self):
        kernel = SimulationKernel(start_time=10.0)
        seen = []
        kernel.schedule_in(2.5, lambda: seen.append(kernel.now))
        kernel.drain()
        assert seen == [12.5]

    def test_clock_advances_to_event_time(self):
        kernel = SimulationKernel()
        kernel.schedule_at(7.0, lambda: None)
        kernel.drain()
        assert kernel.now == 7.0

    def test_scheduling_in_the_past_rejected(self):
        kernel = SimulationKernel(start_time=5.0)
        with pytest.raises(SimulationError):
            kernel.schedule_at(1.0, lambda: None)
        with pytest.raises(SimulationError):
            kernel.schedule_in(-1.0, lambda: None)

    def test_cascading_events(self):
        kernel = SimulationKernel()
        seen = []

        def first():
            seen.append("first")
            kernel.schedule_in(1.0, second)

        def second():
            seen.append("second")

        kernel.schedule_in(1.0, first)
        kernel.drain()
        assert seen == ["first", "second"]
        assert kernel.now == 2.0


class TestCancellation:
    def test_cancelled_events_do_not_fire(self):
        kernel = SimulationKernel()
        seen = []
        handle = kernel.schedule_at(1.0, seen.append, "x")
        handle.cancel()
        kernel.drain()
        assert not seen
        assert handle.cancelled

    def test_pending_events_excludes_cancelled(self):
        kernel = SimulationKernel()
        keep = kernel.schedule_at(1.0, lambda: None)
        drop = kernel.schedule_at(2.0, lambda: None)
        drop.cancel()
        assert kernel.pending_events == 1
        assert keep.time == 1.0


class TestClockControl:
    def test_advance_to_and_by(self):
        kernel = SimulationKernel()
        kernel.advance_to(5.0)
        kernel.advance_by(2.0)
        assert kernel.now == 7.0

    def test_advance_backwards_rejected(self):
        kernel = SimulationKernel()
        kernel.advance_to(5.0)
        with pytest.raises(SimulationError):
            kernel.advance_to(1.0)
        with pytest.raises(SimulationError):
            kernel.advance_by(-0.1)


class TestGuards:
    def test_max_events_guard(self):
        kernel = SimulationKernel()

        def loop():
            kernel.schedule_in(1.0, loop)

        kernel.schedule_in(1.0, loop)
        with pytest.raises(SimulationError):
            kernel.drain(max_events=10)

    def test_events_processed_counter(self):
        kernel = SimulationKernel()
        for i in range(4):
            kernel.schedule_at(float(i + 1), lambda: None)
        kernel.drain()
        assert kernel.events_processed == 4


class TestPendingEventsCounter:
    def test_pending_events_is_tracked_incrementally(self):
        kernel = SimulationKernel()
        handles = [kernel.schedule_at(float(i), lambda: None) for i in range(5)]
        assert kernel.pending_events == 5
        handles[0].cancel()
        handles[0].cancel()  # double cancel must not double count
        assert kernel.pending_events == 4
        kernel.drain()
        assert kernel.pending_events == 0

    def test_cancel_after_fire_keeps_counter_consistent(self):
        kernel = SimulationKernel()
        handle = kernel.schedule_at(1.0, lambda: None)
        kernel.schedule_at(2.0, lambda: None)
        kernel.step()
        handle.cancel()  # no-op: the event already fired
        assert kernel.pending_events == 1
        kernel.drain()
        assert kernel.pending_events == 0


class TestHandleLessPush:
    """``push`` queues like ``schedule_at`` but hands out no ``EventHandle``."""

    def test_fires_in_time_then_insertion_order_among_timers(self):
        kernel = SimulationKernel()
        order = []
        kernel.push(2.0, order.append, ("pushed@2 first",))
        kernel.schedule_at(2.0, order.append, "timer@2 second")
        kernel.schedule_at(1.0, order.append, "timer@1")
        kernel.push(2.0, order.append, ("pushed@2 third",))
        kernel.push(0.5, order.append, ("pushed@0.5",))
        assert kernel.drain() == 5
        assert order == [
            "pushed@0.5", "timer@1", "pushed@2 first", "timer@2 second",
            "pushed@2 third",
        ]
        assert kernel.now == 2.0 and kernel.events_processed == 5

    def test_counts_in_pending_events_and_shows_in_pending(self):
        kernel = SimulationKernel()
        seen = []
        event = kernel.push(1.0, seen.append, ("x",))
        handle = kernel.schedule_at(1.0, seen.append, "y")
        assert not hasattr(event, "cancel") and hasattr(handle, "cancel")
        assert kernel.pending_events == 2
        assert sorted(args for _, args in kernel.pending()) == [("x",), ("y",)]
        kernel.step()
        assert kernel.pending_events == 1 and seen == ["x"]

    def test_extract_where_finds_and_cancels_pushed_events(self):
        kernel = SimulationKernel()
        fired = []
        kernel.push(3.0, fired.append, ("late",))
        kernel.push(1.0, fired.append, ("early",))
        kernel.push(2.0, fired.append, ("kept",))
        extracted = kernel.extract_where(lambda callback, args: args[0] != "kept")
        assert extracted == [("early",), ("late",)]
        assert kernel.pending_events == 1
        kernel.drain()
        assert fired == ["kept"]

    def test_the_past_is_refused(self):
        kernel = SimulationKernel(start_time=5.0)
        with pytest.raises(SimulationError, match="in the past"):
            kernel.push(4.0, lambda: None, ())
        assert kernel.pending_events == 0

    def test_transport_post_rides_on_it_and_refuses_a_negative_delay(self):
        kernel = SimulationKernel(start_time=5.0)
        delivered = []
        kernel.bind(delivered.append)
        envelope = Envelope(Message(), "a", "b")
        kernel.post(envelope, 1.5)
        assert kernel.pending_events == 1
        assert kernel.extract_inbound("nobody") == []
        with pytest.raises(SimulationError, match="in the past"):
            kernel.post(envelope, -0.5)
        assert kernel.drain() == 1
        assert delivered == [envelope] and kernel.now == 6.5
