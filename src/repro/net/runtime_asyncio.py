"""The ``asyncio`` runtime: every registered address is an actor task.

Where the ``sim`` runtime replays the network as a single time-ordered event
heap, this transport runs each node as a real actor: a long-lived
:mod:`asyncio` task draining a bounded per-address inbox.  Sends are
backpressure-aware — an actor whose outbound envelope targets a full inbox
awaits capacity instead of growing an unbounded queue — with a timeout
escape hatch so that cyclic traffic between mutually full inboxes degrades
to an oversized queue rather than a deadlock.

Time is *logical* here: the clock starts at the engine's simulated clock and
ratchets forward to each envelope's ``delivered_at`` / each timer's due time
as work is processed, so windows, expiry sweeps and traffic accounting see
the same timebase as the deterministic runtime.  The clock is therefore a
high-water mark over *every* actor's deliveries, and which delivery raised
it last depends on the interleaving; envelope timestamps do not read it
from inside a handler — the messaging layer stamps what a handler sends
with the delivery time of the message being handled, which is what the
``sim`` clock shows at that point (``DHTMessagingService._transmit``).
Delivery *order*, however, is whatever the scheduler produces — determinism is exactly the property
this runtime trades away for concurrency (see the README's "Runtimes &
transports" section; RJoin's answer bags are provably order-independent,
which is what the cross-runtime equality tests exercise).

Wall-clock waits (the backpressure timeout) are legitimate in this module
and it is exempted from the ``determinism-purity`` analysis rule; the
deterministic transports stay gated.

Driving a concurrent runtime from synchronous engine code works in phases:
``post()`` never blocks — envelopes posted outside any actor buffer in a
driver outbox, envelopes posted by a message handler buffer in the
executing actor's outbox and are flushed (with backpressure awaits) after
the handler returns.  :meth:`AsyncioTransport.drain` then spins the loop:
flush the driver outbox, wait until every in-flight message is delivered,
fire the earliest due timer, repeat until quiescent.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Deque, Dict, List, Optional

from repro.errors import SimulationError
from repro.net.messages import Envelope
from repro.net.runtime import Transport

#: Default bound on a per-address inbox before senders feel backpressure.
DEFAULT_INBOX_CAPACITY = 1024

#: Seconds a backpressured sender waits for inbox space before the escape
#: hatch force-enqueues (prevents deadlock when a traffic cycle fills every
#: inbox in the cycle).
DEFAULT_BACKPRESSURE_TIMEOUT = 0.25


class _InFlight:
    """A posted envelope, tracked until delivery, cancellation or extraction."""

    __slots__ = ("envelope", "cancelled")

    def __init__(self, envelope: Envelope) -> None:
        self.envelope = envelope
        self.cancelled = False


class _Inbox:
    """Bounded FIFO with async blocking on both emptiness and fullness.

    A hand-rolled deque + two events rather than :class:`asyncio.Queue`
    because producers must also be able to enqueue *synchronously* (the
    driver outbox flush and the force-enqueue escape hatch) and consumers
    need to observe capacity transitions for backpressure.
    """

    __slots__ = ("_items", "_capacity", "_readable", "_writable")

    def __init__(self, capacity: int) -> None:
        self._items: Deque[_InFlight] = deque()
        self._capacity = capacity
        self._readable = asyncio.Event()
        self._writable = asyncio.Event()
        self._writable.set()

    def __len__(self) -> int:
        return len(self._items)

    def put_nowait(self, entry: _InFlight) -> None:
        """Enqueue unconditionally (driver flush / escape hatch)."""
        self._items.append(entry)
        self._readable.set()
        if len(self._items) >= self._capacity:
            self._writable.clear()

    async def put(self, entry: _InFlight, timeout: float) -> bool:
        """Enqueue, awaiting capacity up to ``timeout`` seconds.

        On timeout the entry is enqueued anyway: losing backpressure is
        recoverable, a distributed deadlock is not.  Returns whether it was
        (the escape hatch).
        """
        while len(self._items) >= self._capacity:
            try:
                await asyncio.wait_for(self._writable.wait(), timeout)
            except asyncio.TimeoutError:
                self.put_nowait(entry)
                return True
        self.put_nowait(entry)
        return False

    async def get(self) -> _InFlight:
        """Dequeue the oldest entry, awaiting one if the inbox is empty."""
        while not self._items:
            self._readable.clear()
            if self._items:
                break
            await self._readable.wait()
        entry = self._items.popleft()
        if len(self._items) < self._capacity:
            self._writable.set()
        return entry


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
        self._pending: Dict[str, List[_InFlight]] = {}
        self._driver_outbox: Deque[_InFlight] = deque()
        self._actor_outbox: Deque[_InFlight] = deque()
        self._in_handler = False
        self._live_messages = 0
        self._message_done = asyncio.Event()
        self._failure: Optional[BaseException] = None
        #: Stays 0 unless traffic between full inboxes is cyclic.  Each
        #: escape also leaves a ``TimeoutError`` traceback behind, the one
        #: reference cycle a drain can make.
        self.backpressure_escapes = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def register_address(self, address: str) -> None:
        """Spawn the actor task (and inbox) serving ``address``."""
        self._ensure_actor(address)

    # ``unregister_address`` is the base's no-op: the actor stays alive, so
    # envelopes already addressed here still reach the delivery callback,
    # which counts them as dropped (graceful-leave parity with ``sim``).

    def _ensure_actor(self, address: str) -> _Inbox:
        inbox = self._inboxes.get(address)
        if inbox is None:
            if self._closed:
                raise SimulationError(
                    "transport is shut down; cannot register new addresses"
                )
            inbox = _Inbox(self._inbox_capacity)
            self._inboxes[address] = inbox
            self._actors[address] = self._loop.create_task(
                self._actor_main(address, inbox)
            )
        return inbox

    # ------------------------------------------------------------------
    # message delivery
    # ------------------------------------------------------------------
    def post(self, envelope: Envelope, delay: float) -> None:
        """Accept an envelope for asynchronous delivery; never blocks.

        ``delay`` shaped the envelope's ``delivered_at`` stamp when the
        messaging layer built it; actual delivery happens as soon as the
        destination actor gets scheduled.
        """
        if self._deliver is None:
            raise SimulationError(
                "no delivery callback bound; call bind() before post()"
            )
        if self._closed:
            raise SimulationError("transport is shut down; cannot post")
        if delay < 0:
            raise SimulationError("delay must be non-negative")
        entry = _InFlight(envelope)
        self._pending.setdefault(envelope.destination, []).append(entry)
        self._live_messages += 1
        if self._in_handler:
            self._actor_outbox.append(entry)
        else:
            self._driver_outbox.append(entry)

    def extract_inbound(self, address: str) -> List[Envelope]:
        """Take the undelivered envelopes for ``address``, in posting order."""
        extracted: List[Envelope] = []
        for entry in self._pending.get(address, ()):
            if not entry.cancelled:
                entry.cancelled = True
                extracted.append(entry.envelope)
        if extracted:
            self._live_messages -= len(extracted)
            self._message_done.set()
        self._pending.pop(address, None)
        return extracted

    # ------------------------------------------------------------------
    # actors
    # ------------------------------------------------------------------
    async def _actor_main(self, address: str, inbox: _Inbox) -> None:
        """Serve one address forever: dequeue, deliver, flush the outbox."""
        while True:
            entry = await inbox.get()
            if entry.cancelled:
                continue  # cancel/extract already settled its accounting
            outbound = self._execute_handler(address, entry)
            self._live_messages -= 1
            self._message_done.set()
            for produced in outbound:
                if produced.cancelled:
                    continue
                await self._enqueue(produced)

    def _execute_handler(self, address: str, entry: _InFlight) -> List[_InFlight]:
        """Run the delivery callback; return the envelopes it posted."""
        envelope = entry.envelope
        pending = self._pending.get(envelope.destination)
        if pending is not None:
            try:
                pending.remove(entry)
            except ValueError:
                pass  # already settled by cancel/extract racing the dequeue
        if envelope.delivered_at > self._now:
            self._now = envelope.delivered_at
        self._events_processed += 1
        deliver = self._deliver
        assert deliver is not None  # bind() precedes any post
        self._in_handler = True
        try:
            deliver(envelope)
        except Exception as exc:  # surface handler bugs from drain()
            if self._failure is None:
                self._failure = exc
        finally:
            self._in_handler = False
        outbound = list(self._actor_outbox)
        self._actor_outbox.clear()
        return outbound

    async def _enqueue(self, entry: _InFlight) -> None:
        inbox = self._ensure_actor(entry.envelope.destination)
        if await inbox.put(entry, self._backpressure_timeout):
            self.backpressure_escapes += 1

    # ------------------------------------------------------------------
    # drain / shutdown
    # ------------------------------------------------------------------
    def drain(self, max_events: Optional[int] = None) -> int:
        """Run the actor network to quiescence; returns events processed.

        Quiescent means: driver outbox flushed, every in-flight envelope
        delivered (or cancelled/extracted), no pending timer left.  Timers
        fire between message waves, in due-time order, on the driver
        context — so membership operations scheduled through
        :meth:`schedule_in` observe ``is_draining`` exactly like they do on
        the deterministic runtime.
        """
        self._start_drain()
        try:
            return self._loop.run_until_complete(self._drain_async(max_events))
        finally:
            self._draining = False

    async def _drain_async(self, max_events: Optional[int]) -> int:
        start = self._events_processed
        while True:
            await self._flush_driver_outbox()
            await self._await_message_quiescence(start, max_events)
            if self._driver_outbox:
                continue  # a handler ran on the driver context meanwhile
            if not self.step():  # fire the earliest due timer
                break
            self._check_budget(start, max_events)
        self._raise_failure()
        return self._events_processed - start

    async def _flush_driver_outbox(self) -> None:
        while self._driver_outbox:
            entry = self._driver_outbox.popleft()
            if entry.cancelled:
                continue
            await self._enqueue(entry)

    async def _await_message_quiescence(
        self, start: int, max_events: Optional[int]
    ) -> None:
        while self._live_messages > 0:
            self._raise_failure()
            self._check_budget(start, max_events)
            self._message_done.clear()
            if self._live_messages == 0:
                break
            await self._message_done.wait()
        self._raise_failure()

    def _check_budget(self, start: int, max_events: Optional[int]) -> None:
        if max_events is not None and self._events_processed - start > max_events:
            raise SimulationError(f"exceeded the maximum of {max_events} events")

    def _raise_failure(self) -> None:
        if self._failure is not None:
            failure = self._failure
            self._failure = None
            raise failure

    @property
    def pending_events(self) -> int:
        """Undelivered envelopes plus uncancelled pending timers."""
        return self._live_messages + self._live_events

    def shutdown(self) -> None:
        """Drain outstanding work, stop every actor, close the loop.

        Idempotent.  After shutdown the transport refuses further posts,
        drains and registrations.
        """
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
