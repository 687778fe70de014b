"""Transport-conformance suite for every registered runtime.

Every implementation of :class:`repro.net.runtime.Transport` must obey the
same node ↔ network contract — at-most-once delivery, loss-free drain,
in-flight surgery (drop and redirect), cancellable timers, a monotonic
logical clock and an inert post-shutdown state — so the whole suite is
parametrized over the registry, mirroring the store-backend conformance
pattern in ``tests/data/test_store_backends.py``.  A new runtime only has
to register in :func:`repro.net.runtime.make_transport` to be held to the
same invariants.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.net.messages import Envelope, Message
from repro.net.runtime import TRANSPORT_NAMES, Transport, make_transport
from repro.net.runtime_asyncio import AsyncioTransport

pytestmark = pytest.mark.hard_timeout(120)


class Recorder:
    """Delivery callback that records envelopes in arrival order."""

    def __init__(self):
        self.delivered = []

    def __call__(self, envelope: Envelope) -> None:
        self.delivered.append(envelope)

    def ids(self):
        return [env.message.message_id for env in self.delivered]

    def ids_for(self, address: str):
        return [
            env.message.message_id
            for env in self.delivered
            if env.destination == address
        ]


def envelope(destination: str, sender: str = "node-0", delay: float = 1.0):
    return Envelope(
        message=Message(),
        sender=sender,
        destination=destination,
        sent_at=0.0,
        delivered_at=delay,
    )


@pytest.fixture(params=TRANSPORT_NAMES)
def transport(request):
    runtime = make_transport(request.param)
    yield runtime
    runtime.shutdown()


@pytest.fixture
def recorder(transport):
    rec = Recorder()
    transport.bind(rec)
    for address in ("node-0", "node-1", "node-2"):
        transport.register_address(address)
    return rec


class TestFactory:
    def test_every_registered_runtime_constructs(self):
        for name in TRANSPORT_NAMES:
            runtime = make_transport(name)
            assert isinstance(runtime, Transport)
            assert runtime.name == name
            runtime.shutdown()

    def test_unknown_runtime_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown runtime"):
            make_transport("carrier-pigeon")

    def test_only_sim_exposes_a_kernel(self):
        for name in TRANSPORT_NAMES:
            runtime = make_transport(name)
            if name == "sim":
                assert runtime.kernel is not None
            else:
                assert runtime.kernel is None
            runtime.shutdown()


class TestDelivery:
    def test_post_requires_bind(self, transport):
        with pytest.raises(SimulationError, match="bind"):
            transport.post(envelope("node-1"), 1.0)

    def test_every_posted_envelope_arrives_exactly_once(
        self, transport, recorder
    ):
        posted = [envelope(f"node-{i % 3}") for i in range(12)]
        for env in posted:
            transport.post(env, 1.0)
        assert transport.pending_events == 12
        transport.drain()
        assert transport.pending_events == 0
        assert sorted(recorder.ids()) == sorted(
            env.message.message_id for env in posted
        )
        # A second drain is a no-op: nothing is delivered twice.
        transport.drain()
        assert len(recorder.delivered) == 12

    def test_per_destination_posting_order_is_preserved(
        self, transport, recorder
    ):
        # Equal delays: the deterministic runtime delivers in (time,
        # insertion) order, the concurrent one in inbox-FIFO order — both
        # reduce to posting order per destination.
        posted = [envelope("node-1") for _ in range(8)]
        for env in posted:
            transport.post(env, 1.0)
        transport.drain()
        assert recorder.ids_for("node-1") == [
            env.message.message_id for env in posted
        ]

    def test_handler_cascade_completes_within_one_drain(
        self, transport, recorder
    ):
        # A handler that posts a follow-up message: the drain must not
        # declare quiescence until the cascade has run dry.
        hops = []

        def chaining(env: Envelope) -> None:
            recorder(env)
            if len(hops) < 5:
                hops.append(env)
                transport.post(envelope("node-2", sender=env.destination), 0.5)

        transport.bind(chaining)
        transport.post(envelope("node-1"), 1.0)
        transport.drain()
        assert transport.pending_events == 0
        assert len(recorder.delivered) == 6  # the seed plus five follow-ups

    def test_handler_exceptions_surface_from_drain(self, transport, recorder):
        def exploding(env: Envelope) -> None:
            raise SimulationError("handler bug")

        transport.bind(exploding)
        transport.post(envelope("node-1"), 1.0)
        with pytest.raises(SimulationError, match="handler bug"):
            transport.drain()

    def test_max_events_bounds_runaway_cascades(self, transport, recorder):
        # Self-limiting at 200 rounds so the teardown drain (which runs
        # without a budget) still terminates after the budgeted drain raises.
        rounds = []

        def ping_pong(env: Envelope) -> None:
            if len(rounds) >= 200:
                return
            rounds.append(env.destination)
            target = "node-2" if env.destination == "node-1" else "node-1"
            transport.post(envelope(target, sender=env.destination), 0.5)

        transport.bind(ping_pong)
        transport.post(envelope("node-1"), 1.0)
        with pytest.raises(SimulationError, match="maximum"):
            transport.drain(max_events=50)

    def test_is_draining_is_visible_to_handlers(self, transport, recorder):
        observed = []

        def observing(env: Envelope) -> None:
            observed.append(transport.is_draining)

        transport.bind(observing)
        assert transport.is_draining is False
        transport.post(envelope("node-1"), 1.0)
        transport.drain()
        assert observed == [True]
        assert transport.is_draining is False


class TestInFlightSurgery:
    def test_extract_inbound_takes_only_that_address(self, transport, recorder):
        for _ in range(3):
            transport.post(envelope("node-1"), 1.0)
        for _ in range(2):
            transport.post(envelope("node-2"), 1.0)
        assert len(transport.extract_inbound("node-1")) == 3
        assert transport.pending_events == 2
        transport.drain()
        assert recorder.ids_for("node-1") == []
        assert len(recorder.ids_for("node-2")) == 2

    def test_extract_inbound_with_nothing_in_flight(self, transport, recorder):
        assert transport.extract_inbound("node-1") == []

    def test_extract_inbound_returns_posting_order(self, transport, recorder):
        posted = [envelope("node-1") for _ in range(4)]
        for env in posted:
            transport.post(env, 1.0)
        transport.post(envelope("node-2"), 1.0)
        extracted = transport.extract_inbound("node-1")
        assert [env.message.message_id for env in extracted] == [
            env.message.message_id for env in posted
        ]
        transport.drain()
        # Extracted envelopes never reach the callback; others still do.
        assert recorder.ids_for("node-1") == []
        assert len(recorder.ids_for("node-2")) == 1

    def test_extracted_envelopes_can_be_reposted(self, transport, recorder):
        # Owner failover: take the in-flight answers off the network, then
        # re-post them towards the new owner.
        for _ in range(3):
            transport.post(envelope("node-1"), 1.0)
        for env in transport.extract_inbound("node-1"):
            env.destination = "node-2"
            transport.post(env, 1.0)
        transport.drain()
        assert recorder.ids_for("node-1") == []
        assert len(recorder.ids_for("node-2")) == 3


class TestTimers:
    def test_timers_fire_in_due_time_order(self, transport, recorder):
        fired = []
        transport.schedule_in(3.0, fired.append, "late")
        transport.schedule_in(1.0, fired.append, "early")
        transport.schedule_at(transport.now + 2.0, fired.append, "middle")
        transport.drain()
        assert fired == ["early", "middle", "late"]

    def test_cancelled_timer_never_fires(self, transport, recorder):
        fired = []
        handle = transport.schedule_in(1.0, fired.append, "cancelled")
        transport.schedule_in(2.0, fired.append, "kept")
        assert transport.pending_events == 2
        handle.cancel()
        assert handle.cancelled
        assert transport.pending_events == 1
        handle.cancel()  # idempotent
        assert transport.pending_events == 1
        transport.drain()
        assert fired == ["kept"]

    def test_cancel_after_firing_is_a_no_op(self, transport, recorder):
        fired = []
        handle = transport.schedule_in(1.0, fired.append, "fired")
        transport.drain()
        handle.cancel()
        assert fired == ["fired"]
        assert transport.pending_events == 0

    def test_scheduling_in_the_past_is_rejected(self, transport, recorder):
        transport.advance_by(10.0)
        with pytest.raises(SimulationError, match="past"):
            transport.schedule_at(5.0, lambda: None)
        with pytest.raises(SimulationError, match="non-negative"):
            transport.schedule_in(-1.0, lambda: None)

    def test_timer_posting_messages_is_drained(self, transport, recorder):
        transport.schedule_in(
            1.0, lambda: transport.post(envelope("node-1"), 0.5)
        )
        transport.drain()
        assert len(recorder.ids_for("node-1")) == 1
        assert transport.pending_events == 0


class TestClock:
    def test_clock_never_moves_backwards(self, transport, recorder):
        transport.advance_to(5.0)
        assert transport.now == 5.0
        with pytest.raises(SimulationError, match="backwards"):
            transport.advance_to(1.0)
        with pytest.raises(SimulationError, match="negative"):
            transport.advance_by(-1.0)

    def test_drain_ratchets_the_clock_to_processed_work(
        self, transport, recorder
    ):
        transport.post(envelope("node-1", delay=2.5), 2.5)
        transport.schedule_in(4.0, lambda: None)
        transport.drain()
        assert transport.now >= 4.0
        assert recorder.delivered[0].delivered_at <= transport.now


class TestShutdown:
    def test_shutdown_drains_outstanding_work(self, transport, recorder):
        transport.post(envelope("node-1"), 1.0)
        transport.schedule_in(1.0, lambda: None)
        transport.shutdown()
        assert len(recorder.ids_for("node-1")) == 1
        assert transport.pending_events == 0

    def test_shutdown_is_idempotent_and_refuses_posts(
        self, transport, recorder
    ):
        transport.shutdown()
        transport.shutdown()
        with pytest.raises(SimulationError, match="shut down"):
            transport.post(envelope("node-1"), 1.0)


class TestBackpressure:
    """Asyncio-specific: bounded inboxes must not deadlock traffic cycles."""

    def test_driver_flood_beyond_capacity_is_fully_delivered(self):
        runtime = AsyncioTransport(inbox_capacity=2, backpressure_timeout=0.01)
        rec = Recorder()
        runtime.bind(rec)
        for _ in range(20):
            runtime.post(envelope("node-1"), 1.0)
        runtime.drain()
        runtime.shutdown()
        assert len(rec.delivered) == 20

    def test_traffic_cycle_with_tiny_inboxes_does_not_deadlock(self):
        runtime = AsyncioTransport(inbox_capacity=1, backpressure_timeout=0.01)
        rounds = []

        def ping_pong(env: Envelope) -> None:
            rounds.append(env.destination)
            if len(rounds) < 12:
                target = "node-2" if env.destination == "node-1" else "node-1"
                runtime.post(envelope(target, sender=env.destination), 0.5)

        runtime.bind(ping_pong)
        runtime.post(envelope("node-1"), 1.0)
        runtime.post(envelope("node-2"), 1.0)
        runtime.drain()
        # Two interleaved chains: one extra envelope can already be in
        # flight when the stop condition trips, so 12 or 13 deliveries.
        assert 12 <= len(rounds) <= 13
        assert runtime.pending_events == 0
        runtime.shutdown()

    def test_inbox_capacity_is_validated(self):
        with pytest.raises(SimulationError, match="at least 1"):
            AsyncioTransport(inbox_capacity=0)
