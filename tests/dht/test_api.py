"""Tests for the send / multiSend / sendDirect messaging API."""

from dataclasses import dataclass

import pytest

from repro.dht.api import DHTMessagingService
from repro.dht.chord import ChordRing
from repro.dht.hashing import IdentifierSpace
from repro.errors import RoutingError
from repro.net.messages import Message
from repro.net.runtime import TRANSPORT_NAMES, make_transport
from repro.net.simulator import SimulationKernel
from repro.net.stats import TrafficStats


@dataclass
class Ping(Message):
    payload: str = "ping"


@pytest.fixture
def setup():
    ring = ChordRing.create_network(16, space=IdentifierSpace(16), seed=1)
    kernel = SimulationKernel()
    traffic = TrafficStats()
    api = DHTMessagingService(ring, kernel, traffic, hop_delay=1.0)
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
            ring, kernel, TrafficStats(), hop_delay=1.0, delay_jitter=0.5
        )
        api.register_handler(ring.addresses[0], lambda env: None)
        identifier = ring.space.hash_key("jitter")
        envelope = api.send(ring.addresses[0], Ping(), identifier)
        assert envelope.delivered_at >= envelope.hops * 1.0


class TestSendTime:
    """What a handler sends leaves when the message it handles arrived."""

    def build(self, runtime):
        ring = ChordRing.create_network(16, space=IdentifierSpace(16), seed=1)
        transport = make_transport(runtime)
        api = DHTMessagingService(ring, transport, TrafficStats(), hop_delay=1.0)
        for address in ring.addresses:
            api.register_handler(address, lambda env: None)
        return ring, transport, api

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
        ring, transport, api = self.build(runtime)
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
        ring, transport, api = self.build(runtime)
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
