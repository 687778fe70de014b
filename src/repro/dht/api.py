"""The DHT messaging API used by RJoin.

Section 2 of the paper defines three primitives, all implemented here on top
of the Chord ring and the discrete-event kernel:

* ``send(msg, id)`` — deliver ``msg`` to ``Successor(id)`` in O(log N) hops,
* ``multiSend(msg, I)`` / ``multiSend(M, I)`` — deliver one (or a matching)
  message to the successor of each identifier in ``I``,
* ``sendDirect(msg, addr)`` — deliver ``msg`` to a known address in one hop.

Each transmission (the originating send plus every routing hop) is charged
to the transmitting node in :class:`~repro.net.stats.TrafficStats`, matching
the traffic definition of Section 8.  Deliveries are posted to the runtime
:class:`~repro.net.runtime.Transport` with a delay proportional to the hop
count, which realises the bounded-delay asynchronous model used by the
formal analysis (Section 4).  The service is transport-neutral: the same
code runs on the deterministic ``sim`` kernel and the concurrent
``asyncio`` actor runtime, and stamps the same ``sent_at`` /
``delivered_at`` on both — a message sent by a handler leaves at the
delivery time of the message that handler was given, a message sent from
outside any handler at the transport's clock.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.dht.chord import ChordNode, ChordRing
from repro.errors import ConfigurationError, RoutingError
from repro.net.messages import Envelope, Message
from repro.net.runtime import Transport
from repro.net.simulator import SimulationKernel
from repro.net.stats import TrafficStats
from repro.obs.context import Observability
from repro.obs.trace import TraceContext

MessageHandler = Callable[[Envelope], None]


class DHTMessagingService:
    """Implementation of ``send`` / ``multiSend`` / ``sendDirect``.

    Parameters
    ----------
    ring:
        The Chord ring used for lookups and routing paths.
    transport:
        The runtime transport deliveries are posted to (a fresh
        :class:`~repro.net.simulator.SimulationKernel` when omitted).
    traffic:
        Traffic accounting sink.
    hop_delay:
        Simulated time taken by one hop (the paper's bounded delay δ is
        ``hop_delay`` times the maximum route length).
    delay_jitter:
        Optional extra random delay (uniform in ``[0, delay_jitter]``) added
        per message, used by tests that exercise the ALTT/Δ machinery with
        out-of-order deliveries.
    observability:
        Optional :class:`~repro.obs.context.Observability` facade.  When
        given, every posted envelope is stamped with a trace context and
        every delivery runs inside a span that records the transit
        histograms (hop delay, inbox depth, handler service time).
    """

    def __init__(
        self,
        ring: ChordRing,
        transport: Optional[Transport] = None,
        traffic: Optional[TrafficStats] = None,
        hop_delay: float = 1.0,
        delay_jitter: float = 0.0,
        rng: Optional[random.Random] = None,
        observability: Optional[Observability] = None,
    ) -> None:
        for delay in (hop_delay, delay_jitter):
            if not math.isfinite(delay) or delay < 0:
                raise ConfigurationError("delays must be finite and non-negative")
        self.ring = ring
        self.transport = transport if transport is not None else SimulationKernel()
        self.transport.bind(self._deliver)
        self.traffic = traffic if traffic is not None else TrafficStats()
        self.hop_delay = hop_delay
        self.delay_jitter = delay_jitter
        self._rng = rng or random.Random(0)
        self._obs = observability
        self._handlers: Dict[str, MessageHandler] = {}
        self._dropped = 0
        # Delivery time of the envelope whose handler is running, else None.
        self._handling_at: Optional[float] = None

    # ------------------------------------------------------------------
    # handler registration
    # ------------------------------------------------------------------
    def register_handler(self, address: str, handler: MessageHandler) -> None:
        """Register the application-layer message handler of a node."""
        self._handlers[address] = handler
        self.transport.register_address(address)

    def unregister_handler(self, address: str) -> None:
        """Remove the handler of a departed node (its messages are dropped)."""
        self._handlers.pop(address, None)
        self.transport.unregister_address(address)

    def redirect_in_flight(
        self,
        address: str,
        reroute: Callable[[Message], Optional[Tuple[str, Message, int]]],
    ) -> int:
        """Take every undelivered message addressed to ``address`` off the network.

        Models an abrupt crash: deliveries in flight towards the dead
        address never happen.  ``reroute(message)`` (evaluated once per
        envelope, in posting order) decides each one's fate: ``None``
        destroys it — the network lost it, it is counted as dropped — or it
        names the new destination, what to send there (the message itself
        or the part of it worth re-sending) and that part's weight.  The
        callback sees every destroyed message, so it is also where a caller
        learns of losses somebody has to make good (the engine hands a
        destroyed RIC chain back to the node that started it).

        Re-routing models owner failover: when a query owner crashes,
        answers still in flight towards it are re-sent by their producers to
        the re-registered owner once the failure is detected — so each
        re-routed message is a fresh, fully charged direct transmission
        from its original sender.  Messages whose sender has itself left
        the ring cannot be re-sent and are counted as dropped, like the
        part of an envelope's weight that is not re-sent.  Returns the
        number of (logical) messages re-routed.
        """
        pending = self.transport.extract_inbound(address)
        rerouted = 0
        for envelope in pending:
            target = reroute(envelope.message)
            if target is None or not self.ring.has_address(envelope.sender):
                self._dropped += envelope.weight
                continue
            destination, message, weight = target
            # The extracted envelope was never delivered, so its span was
            # never opened: the re-send carries the *same* trace context and
            # the eventual delivery stays inside the original trace.
            self.send_direct(
                envelope.sender,
                message,
                destination,
                trace=envelope.trace,
                weight=weight,
            )
            rerouted += weight
            self._dropped += envelope.weight - weight
        return rerouted

    @property
    def dropped_messages(self) -> int:
        """Messages the network lost instead of delivering.

        Counts both deliveries whose destination had no registered handler
        (the address departed after the message was sent) and in-flight
        messages destroyed by a crash (:meth:`redirect_in_flight`).
        """
        return self._dropped

    # ------------------------------------------------------------------
    # maximum-delay estimate (Section 4)
    # ------------------------------------------------------------------
    def max_transit_delay(self) -> float:
        """An upper bound on the delivery delay of any single message.

        A lookup takes at most ``bits`` hops with perfect finger tables; the
        bound is used to derive a safe ALTT expiry Δ.
        """
        max_hops = self.ring.space.bits
        return max_hops * self.hop_delay + self.delay_jitter

    # ------------------------------------------------------------------
    # primitives
    # ------------------------------------------------------------------
    def send(
        self,
        sender: str,
        message: Message,
        identifier: int,
        is_ric: bool = False,
    ) -> Envelope:
        """``send(msg, id)``: deliver ``message`` to ``Successor(identifier)``."""
        sender_node = self.ring.node_by_address(sender)
        path = self.ring.route_path(sender_node, identifier)
        return self._transmit(path, message, identifier, is_ric)

    def multi_send(
        self,
        sender: str,
        messages: Sequence[Message],
        identifiers: Sequence[int],
        is_ric: bool = False,
    ) -> List[Envelope]:
        """``multiSend(M, I)``: deliver ``messages[j]`` to ``Successor(identifiers[j])``.

        When a single message instance should reach several identifiers
        (``multiSend(msg, I)`` in the paper), pass a list repeating the same
        message object; the cost model is identical (``d * O(log N)`` hops).
        """
        if len(messages) != len(identifiers):
            raise RoutingError(
                "multi_send requires one identifier per message "
                f"({len(messages)} messages, {len(identifiers)} identifiers)"
            )
        sender_node = self.ring.node_by_address(sender)
        envelopes = []
        sends = 0
        routed: Dict[str, int] = {}
        for message, identifier in zip(messages, identifiers):
            path = self.ring.route_path(sender_node, identifier)
            envelope = self._transmit(
                path, message, identifier, is_ric, record_traffic=False
            )
            envelopes.append(envelope)
            # Coalesce the traffic accounting over the whole batch: one
            # counter update per transmitting node instead of one per message.
            if envelope.hops > 0:
                sends += 1
                for forwarder in envelope.route[1:-1]:
                    routed[forwarder] = routed.get(forwarder, 0) + 1
        if sends:
            self.traffic.record_send(sender, is_ric=is_ric, count=sends)
        for forwarder, count in routed.items():
            self.traffic.record_route(forwarder, is_ric=is_ric, count=count)
        return envelopes

    def send_direct(
        self,
        sender: str,
        message: Message,
        destination: str,
        is_ric: bool = False,
        trace: Optional[TraceContext] = None,
        weight: int = 1,
        target_identifier: Optional[int] = None,
    ) -> Envelope:
        """``sendDirect(msg, addr)``: deliver ``message`` to a known address in one hop.

        ``weight`` is the number of logical messages ``message`` stands for
        (the answers of one :class:`~repro.core.protocol.AnswerMessage`):
        the sender is charged that many transmissions for the one envelope,
        exactly what sending them one by one would have cost.
        ``target_identifier`` is the identifier ``send`` would have been given,
        when ``destination`` was picked as its presumed owner: it travels on
        the envelope, so that the receiver can tell whether it is.
        """
        self.ring.node_by_address(sender)  # an unknown sender raises
        if destination == sender:
            # Local delivery: no network transmission.
            return self._post(
                message, (sender,), target_identifier, 0, True, trace, weight
            )
        # The destination may have left the ring (or crashed) after handing
        # out its address.  The sender cannot know that: the transmission is
        # paid for either way, and the message is dropped on (non-)delivery
        # when no handler is registered for the address any more.
        self.traffic.record_send(sender, is_ric, weight)
        return self._post(
            message, (sender, destination), target_identifier, 1, True, trace, weight
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _transmit(
        self,
        path: List[ChordNode],
        message: Message,
        identifier: int,
        is_ric: bool,
        record_traffic: bool = True,
    ) -> Envelope:
        """Charge and post a message routed along ``path`` (sender first)."""
        route = tuple([node.address for node in path])
        hops = len(route) - 1
        if hops > 0 and record_traffic:
            self.traffic.record_path(route[0], route[1:], is_ric=is_ric)
        return self._post(message, route, identifier, hops, False, None, 1)

    def _post(
        self,
        message: Message,
        route: Tuple[str, ...],
        identifier: Optional[int],
        hops: int,
        direct: bool,
        trace: Optional[TraceContext],
        weight: int,
    ) -> Envelope:
        """Stamp the envelope of ``message`` travelling ``route`` and post it.

        The one place that draws the jitter, reads the send time and builds
        an :class:`~repro.net.messages.Envelope`, for all three primitives.
        """
        delay = hops * self.hop_delay
        if self.delay_jitter > 0:
            delay += self._rng.uniform(0.0, self.delay_jitter)
        # What a handler sends leaves when the message it is handling arrived
        # — on ``sim`` that *is* the clock; on ``asyncio`` the clock is the
        # high-water mark over every actor's deliveries, and stamping with it
        # would make timestamps depend on how the actors happened to
        # interleave.
        sent_at = self._handling_at
        if sent_at is None:
            sent_at = self.transport.now
        envelope = Envelope(
            message,
            route[0],
            route[-1],
            identifier,
            route,
            hops,
            sent_at,
            sent_at + delay,
            direct,
            weight,
        )
        if self._obs is not None:
            envelope.trace = (
                trace if trace is not None else self._obs.context_for(envelope)
            )
        self.transport.post(envelope, delay)
        return envelope

    def _deliver(self, envelope: Envelope) -> None:
        handler = self._handlers.get(envelope.destination)
        if handler is None:
            self._dropped += envelope.weight
            return
        obs = self._obs
        span = (
            None
            if obs is None
            else obs.delivery_begin(envelope, self.transport.pending_events)
        )
        self._handling_at = envelope.delivered_at
        try:
            handler(envelope)
        finally:
            self._handling_at = None
            if obs is not None:
                obs.delivery_end(span)
