"""Tests for the send / multiSend / sendDirect messaging API."""

import random
from dataclasses import dataclass

import pytest

from repro.dht.api import DHTMessagingService
from repro.dht.chord import ChordRing
from repro.dht.hashing import IdentifierSpace
from repro.errors import RoutingError, UnknownNodeError
from repro.net.messages import Message
from repro.net.runtime import TRANSPORT_NAMES, make_transport
from repro.net.simulator import SimTransport, SimulationKernel
from repro.net.stats import TrafficStats
from repro.obs.context import Observability
from repro.obs.trace import TraceContext


@dataclass
class Ping(Message):
    payload: str = "ping"


@pytest.fixture
def setup():
    ring = ChordRing.create_network(16, space=IdentifierSpace(16), seed=1)
    kernel = SimulationKernel()
    traffic = TrafficStats()
    api = DHTMessagingService(ring, SimTransport(kernel), traffic, hop_delay=1.0)
    received = []
    for address in ring.addresses:
        api.register_handler(
            address, lambda env, addr=address: received.append((addr, env))
        )
    return ring, kernel, traffic, api, received


class TestSend:
    def test_send_reaches_owner(self, setup):
        ring, kernel, traffic, api, received = setup
        identifier = ring.space.hash_key("some-key")
        owner = ring.successor(identifier)
        api.send(ring.addresses[0], Ping(), identifier)
        kernel.run_until_idle()
        assert len(received) == 1
        address, envelope = received[0]
        assert address == owner.address
        assert envelope.destination == owner.address
        assert envelope.hops == len(envelope.route) - 1

    def test_send_charges_each_transmitting_node(self, setup):
        ring, kernel, traffic, api, received = setup
        identifier = ring.space.hash_key("k")
        envelope = api.send(ring.addresses[0], Ping(), identifier)
        kernel.run_until_idle()
        assert traffic.total_messages == envelope.hops

    def test_local_delivery_costs_nothing(self, setup):
        ring, kernel, traffic, api, received = setup
        identifier = ring.space.hash_key("local")
        owner = ring.successor(identifier)
        api.send(owner.address, Ping(), identifier)
        kernel.run_until_idle()
        assert traffic.total_messages == 0
        assert len(received) == 1

    def test_delivery_delay_proportional_to_hops(self, setup):
        ring, kernel, traffic, api, received = setup
        identifier = ring.space.hash_key("delay")
        envelope = api.send(ring.addresses[0], Ping(), identifier)
        assert envelope.delivered_at == pytest.approx(envelope.hops * 1.0)
        kernel.run_until_idle()
        assert kernel.now == pytest.approx(envelope.delivered_at)

    def test_ric_messages_counted_separately(self, setup):
        ring, kernel, traffic, api, received = setup
        identifier = ring.space.hash_key("ric")
        envelope = api.send(ring.addresses[0], Ping(), identifier, is_ric=True)
        kernel.run_until_idle()
        assert traffic.total_ric_messages == envelope.hops
        assert traffic.total_messages == envelope.hops


class TestMultiSend:
    def test_multi_send_delivers_each_message(self, setup):
        ring, kernel, traffic, api, received = setup
        identifiers = [ring.space.hash_key(f"k{i}") for i in range(5)]
        messages = [Ping(payload=f"m{i}") for i in range(5)]
        api.multi_send(ring.addresses[0], messages, identifiers)
        kernel.run_until_idle()
        assert len(received) == 5

    def test_multi_send_length_mismatch(self, setup):
        ring, kernel, traffic, api, received = setup
        with pytest.raises(RoutingError):
            api.multi_send(ring.addresses[0], [Ping()], [1, 2])


class TestSendDirect:
    def test_send_direct_one_hop(self, setup):
        ring, kernel, traffic, api, received = setup
        sender, destination = ring.addresses[0], ring.addresses[5]
        envelope = api.send_direct(sender, Ping(), destination)
        kernel.run_until_idle()
        assert envelope.hops == 1
        assert traffic.total_messages == 1
        assert received[0][0] == destination

    def test_send_direct_to_self_is_free(self, setup):
        ring, kernel, traffic, api, received = setup
        sender = ring.addresses[0]
        api.send_direct(sender, Ping(), sender)
        kernel.run_until_idle()
        assert traffic.total_messages == 0
        assert received[0][0] == sender


class TestSendDirectAccounting:
    """``send_direct`` charges what a one-hop routed path is charged."""

    def test_to_self_takes_no_hop_and_charges_nothing(self, setup):
        ring, kernel, traffic, api, received = setup
        sender = ring.addresses[0]
        envelope = api.send_direct(sender, Ping(), sender, weight=3)
        assert (envelope.hops, envelope.route) == (0, (sender,))
        assert envelope.direct and envelope.delivered_at == envelope.sent_at
        kernel.run_until_idle()
        assert traffic.total_messages == 0 and traffic.per_node() == {}
        assert [address for address, _ in received] == [sender]

    @pytest.mark.parametrize("weight", [1, 4])
    def test_to_a_live_address(self, setup, weight):
        ring, kernel, traffic, api, received = setup
        sender, destination = ring.addresses[0], ring.addresses[5]
        envelope = api.send_direct(sender, Ping(), destination, weight=weight)
        assert (envelope.sender, envelope.destination) == (sender, destination)
        assert (envelope.hops, envelope.route) == (1, (sender, destination))
        assert envelope.direct and envelope.target_identifier is None
        assert envelope.weight == weight
        assert envelope.delivered_at == envelope.sent_at + 1.0
        kernel.run_until_idle()
        assert traffic.node(sender).sent == traffic.total_messages == weight
        assert received == [(destination, envelope)]
        assert api.dropped_messages == 0

    @pytest.mark.parametrize("weight", [1, 4])
    def test_to_a_departed_address_is_paid_for_and_dropped(self, setup, weight):
        ring, kernel, traffic, api, received = setup
        sender, departed = ring.addresses[0], ring.addresses[5]
        api.unregister_handler(departed)
        ring.remove_node(departed)
        envelope = api.send_direct(sender, Ping(), departed, weight=weight)
        assert (envelope.hops, envelope.route) == (1, (sender, departed))
        assert traffic.node(sender).sent == traffic.total_messages == weight
        assert api.dropped_messages == 0
        kernel.run_until_idle()
        assert api.dropped_messages == weight
        assert not received

    def test_from_an_unknown_sender_raises(self, setup):
        ring, kernel, traffic, api, received = setup
        with pytest.raises(UnknownNodeError, match="nobody"):
            api.send_direct("nobody", Ping(), ring.addresses[0])
        with pytest.raises(UnknownNodeError, match="nobody"):
            api.send_direct("nobody", Ping(), "nobody")
        assert kernel.pending_events == 0 and traffic.total_messages == 0

    @pytest.mark.parametrize("weight", [1, 7])
    @pytest.mark.parametrize("is_ric", [False, True])
    def test_charges_exactly_what_record_path_charges_one_hop(
        self, setup, weight, is_ric
    ):
        ring, kernel, traffic, api, received = setup
        sender, destination = ring.addresses[2], ring.addresses[9]
        api.send_direct(sender, Ping(), destination, is_ric=is_ric, weight=weight)
        reference = TrafficStats()
        reference.record_path(sender, [destination], is_ric=is_ric, count=weight)
        assert traffic.per_node() == reference.per_node()
        assert traffic.snapshot() == reference.snapshot()
        assert traffic.node(destination).total == 0


class CountingRandom(random.Random):
    """Counts the ``uniform`` draws made through it."""

    draws = 0

    def uniform(self, a, b):
        self.draws += 1
        return super().uniform(a, b)


def build_network(runtime="sim", **options):
    """A 16-node ring whose handlers discard what they receive."""
    ring = ChordRing.create_network(16, space=IdentifierSpace(16), seed=1)
    transport = make_transport(runtime)
    api = DHTMessagingService(ring, transport, TrafficStats(), hop_delay=1.0, **options)
    for address in ring.addresses:
        api.register_handler(address, lambda env: None)
    return ring, transport, api


class TestEnvelopeStamping:
    def test_one_jitter_draw_per_envelope_on_every_primitive(self):
        rng = CountingRandom(4)
        ring, transport, api = build_network(delay_jitter=0.5, rng=rng)
        sender = ring.addresses[0]
        identifiers = [ring.space.hash_key(f"k{i}") for i in range(5)]
        envelopes = [api.send(sender, Ping(), identifiers[0])]
        assert rng.draws == 1
        envelopes += api.multi_send(sender, [Ping()] * 5, identifiers)
        assert rng.draws == 6
        envelopes.append(api.send_direct(sender, Ping(), ring.addresses[3]))
        envelopes.append(api.send_direct(sender, Ping(), sender))
        assert rng.draws == 8
        for envelope in envelopes:
            jitter = envelope.delivered_at - envelope.sent_at - envelope.hops * 1.0
            assert 0.0 <= jitter <= 0.5
        assert transport.pending_events == len(envelopes) == 8

    def test_no_jitter_configured_draws_nothing(self):
        rng = CountingRandom(4)
        ring, transport, api = build_network(rng=rng)
        api.send(ring.addresses[0], Ping(), ring.space.hash_key("k"))
        api.send_direct(ring.addresses[0], Ping(), ring.addresses[1])
        assert rng.draws == 0

    def test_resend_keeps_the_passed_trace_and_fresh_sends_get_their_own(self):
        obs = Observability(clock=lambda: 0.0)
        ring, transport, api = build_network(observability=obs)
        sender, destination = ring.addresses[0], ring.addresses[1]
        original = api.send_direct(sender, Ping(), destination)
        assert original.trace is not None
        resent = api.send_direct(
            sender, Ping(), ring.addresses[2], trace=original.trace, weight=2
        )
        assert resent.trace is original.trace
        fresh = api.send(sender, Ping(), ring.space.hash_key("k"))
        assert fresh.trace is not None and fresh.trace != original.trace

    def test_without_observability_no_trace_is_stamped(self):
        ring, transport, api = build_network()
        trace = TraceContext("t", 1, None, 0)
        envelope = api.send_direct(
            ring.addresses[0], Ping(), ring.addresses[1], trace=trace
        )
        assert envelope.trace is None


class TestDeliveryEdgeCases:
    def test_unregistered_destination_drops_message(self, setup):
        ring, kernel, traffic, api, received = setup
        destination = ring.addresses[3]
        api.unregister_handler(destination)
        api.send_direct(ring.addresses[0], Ping(), destination)
        kernel.run_until_idle()
        assert api.dropped_messages == 1
        assert not received

    def test_max_transit_delay_bounds_hops(self, setup):
        ring, kernel, traffic, api, received = setup
        assert api.max_transit_delay() >= ring.space.bits * 0.0

    def test_jitter_adds_delay(self):
        ring = ChordRing.create_network(8, space=IdentifierSpace(16), seed=2)
        kernel = SimulationKernel()
        api = DHTMessagingService(
            ring, SimTransport(kernel), TrafficStats(), hop_delay=1.0, delay_jitter=0.5
        )
        api.register_handler(ring.addresses[0], lambda env: None)
        identifier = ring.space.hash_key("jitter")
        envelope = api.send(ring.addresses[0], Ping(), identifier)
        assert envelope.delivered_at >= envelope.hops * 1.0


class TestSendTime:
    """What a handler sends leaves when the message it handles arrived."""

    def far_identifier(self, ring, sender, but):
        """An identifier three or more hops from ``sender``, not owned by ``but``."""
        start = ring.node_by_address(sender)
        for number in range(1000):
            identifier = ring.space.hash_key(f"far-{number}")
            path = ring.route_path(start, identifier)
            if len(path) > 3 and path[-1].address != but:
                return identifier
        raise AssertionError("no far identifier on this ring")

    @pytest.mark.parametrize("runtime", TRANSPORT_NAMES)
    def test_reply_is_stamped_with_the_handled_delivery_time(self, runtime):
        ring, transport, api = build_network(runtime)
        sender, relay, sink = ring.addresses[:3]
        replies = []
        api.register_handler(
            relay,
            lambda env: replies.append(api.send_direct(relay, Ping("reply"), sink)),
        )
        # Posted first, so the asyncio actors deliver it first: the clock is
        # already past 3 when the relay handles a message that arrived at 1.
        far = api.send(sender, Ping(), self.far_identifier(ring, sender, relay))
        near = api.send_direct(sender, Ping(), relay)
        transport.drain()
        (reply,) = replies
        assert near.delivered_at == 1.0
        assert (reply.sent_at, reply.delivered_at) == (1.0, 2.0)
        assert transport.now == far.delivered_at >= 3.0
        # Outside a handler the clock is the time of a send.
        assert api.send_direct(sender, Ping(), sink).sent_at == transport.now
        transport.shutdown()

    @pytest.mark.parametrize("runtime", TRANSPORT_NAMES)
    def test_raising_handler_does_not_leave_its_time_behind(self, runtime):
        ring, transport, api = build_network(runtime)
        sender, relay, sink = ring.addresses[:3]

        def failing(env):
            raise RuntimeError("handler bug")

        api.register_handler(relay, failing)
        api.send_direct(sender, Ping(), relay)
        with pytest.raises(RuntimeError, match="handler bug"):
            transport.drain()
        transport.advance_by(5.0)
        assert api.send_direct(sender, Ping(), sink).sent_at == transport.now == 6.0
        transport.shutdown()
