"""The ``asyncio`` runtime: every registered address is an actor task.

Where the ``sim`` runtime replays the network as a single time-ordered event
heap, this transport runs each node as a real actor: a long-lived
:mod:`asyncio` task draining a bounded per-address inbox.  ``post()`` never
blocks: an envelope goes straight into its destination's inbox when that
has room, and otherwise joins the inbox's waiting queue, which the
destination actor admits from, oldest first, as it takes deliveries — so
per destination, delivery follows posting order.  An actor whose handler
left envelopes waiting awaits their admission before it takes its next
delivery, with a timeout escape hatch so that cyclic traffic between
mutually full inboxes degrades to an oversized inbox rather than a deadlock.
:meth:`AsyncioTransport.drain` spins the loop until every posted envelope
is delivered, fires the earliest due timer, and repeats until quiescent.

Time is *logical* here: the clock starts at the engine's simulated clock and
ratchets forward to each envelope's ``delivered_at`` / each timer's due time
as work is processed, so windows, expiry sweeps and traffic accounting see
the same timebase as the deterministic runtime.  The clock is therefore a
high-water mark over *every* actor's deliveries; envelope timestamps do not
read it from inside a handler — the messaging layer stamps what a handler
sends with the delivery time of the message being handled, which is what
the ``sim`` clock shows at that point.  Delivery *order* across
destinations is whatever the scheduler produces — determinism is exactly
the property this runtime trades away for concurrency (RJoin's answer bags
are provably order-independent, which is what the cross-runtime equality
tests exercise).

Wall-clock waits (the backpressure timeout) are legitimate in this module
and it is exempted from the ``determinism-purity`` analysis rule.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Deque, Dict, List, Optional

from repro.errors import SimulationError
from repro.net.messages import Envelope
from repro.net.runtime import _INF, Transport

#: Default bound on a per-address inbox before senders feel backpressure.
DEFAULT_INBOX_CAPACITY = 1024

#: Seconds a backpressured sender waits for inbox space before the escape
#: hatch force-enqueues (prevents deadlock when a traffic cycle fills every
#: inbox in the cycle).
DEFAULT_BACKPRESSURE_TIMEOUT = 0.25


class _Inbox:
    """One address's bounded FIFO of envelopes, and those waiting for room.

    ``items`` holds at most ``capacity`` envelopes, unless an escape forced
    more in.  An envelope posted while ``items`` is full joins ``waiting``;
    the actor admits the oldest waiting envelope whenever taking one off
    ``items`` leaves room.  So ``waiting`` is empty unless ``items`` is full,
    and nothing overtakes a waiting envelope.
    """

    __slots__ = ("items", "waiting", "capacity", "admitted", "reader", "room")

    def __init__(self, capacity: int) -> None:
        self.items: Deque[Envelope] = deque()
        self.waiting: Deque[Envelope] = deque()
        self.capacity = capacity
        #: Envelopes that ever left ``waiting``; the envelope that was the
        #: n-th ever to wait has left it once this reaches n.
        self.admitted = 0
        #: What the idle actor awaits; the next post into ``items`` resolves it.
        self.reader: Optional["asyncio.Future[None]"] = None
        #: What blocked senders await; resolved when envelopes leave ``waiting``.
        self.room: Optional["asyncio.Future[None]"] = None

    def admit(self, count: int) -> None:
        """Move the ``count`` oldest waiting envelopes into ``items``."""
        for _ in range(count):
            self.items.append(self.waiting.popleft())
        self.admitted += count
        room, self.room = self.room, None
        if room is not None:
            room.set_result(None)


class AsyncioTransport(Transport):
    """Concurrent actor-per-address runtime behind the :class:`Transport` contract.

    The clock, the timer heap and the shut-down state are the base's; this
    class adds the actors, their inboxes and the drain loop that waits for
    them.
    """

    name = "asyncio"

    #: Handlers run on a real event loop here, so spans additionally record
    #: wall-clock service time (``Span.wall_us``) — the logical timestamps
    #: alone cannot show where a concurrent run actually spends time.
    wall_clock_spans = True

    def __init__(
        self,
        inbox_capacity: int = DEFAULT_INBOX_CAPACITY,
        backpressure_timeout: float = DEFAULT_BACKPRESSURE_TIMEOUT,
    ) -> None:
        if inbox_capacity < 1:
            raise SimulationError("inbox_capacity must be at least 1")
        super().__init__()
        self._inbox_capacity = inbox_capacity
        self._backpressure_timeout = backpressure_timeout
        self._loop = asyncio.new_event_loop()
        self._inboxes: Dict[str, _Inbox] = {}
        self._actors: Dict[str, "asyncio.Task[None]"] = {}
        #: The inbox whose actor is running a handler (None: outside any handler).
        self._current: Optional[_Inbox] = None
        #: Inboxes the running handler left envelopes waiting at, each with
        #: the ``admitted`` count that sees its last one in.
        self._blocked: Dict[_Inbox, int] = {}
        self._live_messages = 0
        self._event_limit = _INF
        self._drain_waiter: Optional["asyncio.Future[None]"] = None
        self._failure: Optional[BaseException] = None
        #: Stays 0 unless traffic between full inboxes is cyclic.
        self.backpressure_escapes = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def register_address(self, address: str) -> None:
        """Spawn the actor task (and inbox) serving ``address``."""
        self._ensure_actor(address)

    # ``unregister_address`` is the base's no-op: the actor stays alive and the
    # delivery callback counts what still arrives as dropped, as on ``sim``.

    def _ensure_actor(self, address: str) -> _Inbox:
        inbox = self._inboxes.get(address)
        if inbox is None:
            self.check_open("register new addresses")
            inbox = _Inbox(self._inbox_capacity)
            self._inboxes[address] = inbox
            self._actors[address] = self._loop.create_task(self._actor_main(inbox))
        return inbox

    # ------------------------------------------------------------------
    # message delivery
    # ------------------------------------------------------------------
    def post(self, envelope: Envelope, delay: float) -> None:
        """Put ``envelope`` in its destination's inbox, or else its waiting
        queue; never blocks.  ``delay`` only shaped ``delivered_at``."""
        if self._closed:
            raise SimulationError("transport is shut down; cannot post")
        if self._deliver is None:
            raise SimulationError(
                "no delivery callback bound; call bind() before post()"
            )
        if delay < 0:
            raise SimulationError("delay must be non-negative")
        inbox = self._inboxes.get(envelope.destination)
        if inbox is None:
            inbox = self._ensure_actor(envelope.destination)
        self._live_messages += 1
        items = inbox.items
        if len(items) < inbox.capacity:  # then nothing waits either
            items.append(envelope)
            reader = inbox.reader
            if reader is not None:
                inbox.reader = None
                reader.set_result(None)
            return
        inbox.waiting.append(envelope)
        current = self._current
        if current is not None and current is not inbox:
            # The handler's actor holds off its next delivery until this
            # envelope is in; an actor consuming its own inbox need not.
            self._blocked[inbox] = inbox.admitted + len(inbox.waiting)

    def extract_inbound(self, address: str) -> List[Envelope]:
        """Take the undelivered envelopes for ``address``, in posting order."""
        inbox = self._inboxes.get(address)
        if inbox is None:
            return []
        inbox.admit(len(inbox.waiting))  # frees their senders, keeps the order
        extracted = list(inbox.items)
        inbox.items.clear()
        self._live_messages -= len(extracted)
        return extracted

    # ------------------------------------------------------------------
    # actors
    # ------------------------------------------------------------------
    async def _actor_main(self, inbox: _Inbox) -> None:
        """Serve one inbox forever: take an envelope, deliver it, repeat."""
        items, waiting = inbox.items, inbox.waiting
        while True:
            if not items:
                inbox.reader = reader = self._loop.create_future()
                await reader
                continue
            envelope = items.popleft()
            if waiting and len(items) < inbox.capacity:
                inbox.admit(1)
            if envelope.delivered_at > self._now:
                self._now = envelope.delivered_at
            self._events_processed += 1
            self._current = inbox
            try:
                self._deliver(envelope)  # type: ignore[misc]
            except Exception as exc:  # surface handler bugs from drain()
                if self._failure is None:
                    self._failure = exc
                self._wake_drain()
            finally:
                self._current = None
            self._live_messages -= 1
            if not self._live_messages or self._events_processed > self._event_limit:
                self._wake_drain()
            if self._blocked:
                await self._await_room()

    async def _await_room(self) -> None:
        """Hold the actor until what its handler left waiting is admitted; after
        a wait of the backpressure timeout, admit it anyway (the escape)."""
        blocked, self._blocked = self._blocked, {}
        for inbox, admitted in blocked.items():
            while inbox.admitted < admitted:
                if inbox.room is None:
                    inbox.room = self._loop.create_future()
                done, _ = await asyncio.wait(
                    (inbox.room,), timeout=self._backpressure_timeout
                )
                if not done:
                    self.backpressure_escapes += admitted - inbox.admitted
                    inbox.admit(admitted - inbox.admitted)

    def _wake_drain(self) -> None:
        waiter = self._drain_waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    # ------------------------------------------------------------------
    # drain / shutdown
    # ------------------------------------------------------------------
    def drain(self, max_events: Optional[int] = None) -> int:
        """Run until every posted envelope is delivered (or extracted) and no
        timer is left; returns the events processed.  Timers fire between
        message waves, in due-time order, outside any actor — so
        membership operations scheduled through :meth:`schedule_in` observe
        ``is_draining`` exactly as on the deterministic runtime."""
        self._start_drain()
        try:
            return self._loop.run_until_complete(self._drain_async(max_events))
        finally:
            self._draining = False
            self._event_limit = _INF

    async def _drain_async(self, max_events: Optional[int]) -> int:
        start = self._events_processed
        if max_events is not None:
            self._event_limit = start + max_events
        while True:
            if self._failure is not None:
                failure, self._failure = self._failure, None
                raise failure
            if self._live_messages:
                # Woken at quiescence, on a handler failure or past the budget.
                self._drain_waiter = self._loop.create_future()
                await self._drain_waiter
            elif not self.step():  # fire the earliest due timer
                return self._events_processed - start
            if max_events is not None and self._events_processed - start > max_events:
                raise SimulationError(f"exceeded the maximum of {max_events} events")

    @property
    def pending_events(self) -> int:
        """Undelivered envelopes plus uncancelled pending timers."""
        return self._live_messages + self._live_events

    def shutdown(self) -> None:
        """Drain outstanding work, stop every actor, close the loop; idempotent.
        Later posts, drains and registrations are refused."""
        if self._closed:
            return
        super().shutdown()
        tasks = list(self._actors.values())
        for task in tasks:
            task.cancel()
        if tasks:
            self._loop.run_until_complete(
                asyncio.gather(*tasks, return_exceptions=True)
            )
        self._actors.clear()
        self._inboxes.clear()
        self._loop.close()
