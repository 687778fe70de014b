"""The deterministic ``sim`` runtime: discrete-event kernel + transport.

Every interaction in the simulated network — a message delivery, a timer, a
garbage-collection sweep — is an *event*: a callback scheduled at a simulated
time.  The kernel pops events in time order (ties broken by insertion order,
which keeps runs fully deterministic for a fixed seed) and advances the
global clock.

The kernel is deliberately minimal: it knows nothing about Chord or RJoin.
:class:`SimTransport` adapts it to the transport-neutral
:class:`~repro.net.runtime.Transport` contract the DHT messaging API
(:mod:`repro.dht.api`) programs against; the engine
(:mod:`repro.core.engine`) drains it between tuple publications.  This is
the test/oracle harness: two runs with the same seed take the same decisions
in the same order.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Iterator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.net import runtime as _runtime
from repro.net.messages import Envelope
from repro.net.runtime import DeliverCallback, Transport, _HeapEntry, _ScheduledEvent


class SimulationKernel(_runtime._TimerLedger):
    """Deterministic discrete-event scheduler with a floating-point clock."""

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = start_time
        self._heap: List[_HeapEntry] = []
        self._sequence = itertools.count()
        self._events_processed = 0
        self._running = False
        self._live_events = 0  # heap entries that are neither cancelled nor fired

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def advance_to(self, time: float) -> None:
        """Move the clock forward to ``time`` without processing events.

        Used by the engine to model wall-clock gaps between tuple
        publications.  Pending events scheduled before ``time`` are *not*
        skipped: they will be processed (at their own timestamps) by the next
        :meth:`run_until_idle` call; the clock simply never moves backwards.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot move the clock backwards from {self._now} to {time}"
            )
        self._now = time

    def advance_by(self, delta: float) -> None:
        """Move the clock forward by ``delta`` time units."""
        if delta < 0:
            raise SimulationError("cannot advance the clock by a negative delta")
        self.advance_to(self._now + delta)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def push(
        self, time: float, callback: Callable[..., None], args: Tuple[Any, ...]
    ) -> _ScheduledEvent:
        """Queue ``callback(*args)`` at absolute simulated ``time``, handle-less.

        The one place the heap grows.  For events nobody cancels one by one
        (message deliveries: a crash takes them off with
        :meth:`extract_where`); :meth:`schedule_at` wraps the returned event
        in an :class:`~repro.net.runtime.EventHandle` for those somebody may.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event in the past ({time} < {self._now})"
            )
        event = _ScheduledEvent(time, callback, args)
        heapq.heappush(self._heap, (time, next(self._sequence), event))
        self._live_events += 1
        return event

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> _runtime.EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        return _runtime.EventHandle(self.push(time, callback, args), self)

    def schedule_in(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> _runtime.EventHandle:
        """Schedule ``callback(*args)`` after ``delay`` time units."""
        if delay < 0:
            raise SimulationError("delay must be non-negative")
        return self.schedule_at(self._now + delay, callback, *args)

    def extract_where(
        self, predicate: Callable[[Callable[..., None], Tuple[Any, ...]], bool]
    ) -> List[Tuple[Any, ...]]:
        """Cancel matching pending events and return their argument tuples.

        Models what a crash does to messages still in flight towards the
        dead address: their delivery events never fire.  The payloads are
        handed back so the caller can count them or reschedule them
        differently — the mechanism behind re-routing in-flight answers to a
        failed-over query owner.  Results are in scheduling order (time,
        then insertion sequence).
        """
        extracted: List[_HeapEntry] = []
        for entry in self._heap:
            event = entry[2]
            if event.cancelled or event.fired:
                continue
            if predicate(event.callback, event.args):
                event.cancelled = True
                self._live_events -= 1
                extracted.append(entry)
        extracted.sort()
        return [event.args for _, _, event in extracted]

    def pending(self) -> Iterator[Tuple[Callable[..., None], Tuple[Any, ...]]]:
        """``(callback, args)`` of every event still to fire, in no particular order."""
        for _, _, event in self._heap:
            if not event.cancelled:
                yield event.callback, event.args

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Process the next pending event; return False when none remain."""
        while self._heap:
            _, _, event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            if event.time > self._now:
                self._now = event.time
            self._events_processed += 1
            self._live_events -= 1
            event.fired = True
            event.callback(*event.args)
            return True
        return False

    def run_until_idle(self, max_events: Optional[int] = None) -> int:
        """Process events until the queue is empty.

        Returns the number of events processed.  ``max_events`` guards
        against runaway event cascades (useful in tests); exceeding it raises
        :class:`~repro.errors.SimulationError`.
        """
        if self._running:
            raise SimulationError("run_until_idle() is not re-entrant")
        self._running = True
        processed = 0
        try:
            while self.step():
                processed += 1
                if max_events is not None and processed > max_events:
                    raise SimulationError(
                        f"exceeded the maximum of {max_events} events"
                    )
        finally:
            self._running = False
        return processed

    def run_until(self, time: float, max_events: Optional[int] = None) -> int:
        """Process events with timestamps up to ``time`` (inclusive)."""
        processed = 0
        while self._heap:
            upcoming = self._next_pending()
            if upcoming is None or upcoming.time > time:
                break
            self.step()
            processed += 1
            if max_events is not None and processed > max_events:
                raise SimulationError(f"exceeded the maximum of {max_events} events")
        self.advance_to(max(self._now, time))
        return processed

    def _next_pending(self) -> Optional[_ScheduledEvent]:
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][2] if self._heap else None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of events waiting in the queue (excluding cancelled ones); O(1)."""
        return self._live_events

    @property
    def is_running(self) -> bool:
        """Whether an event-processing loop is currently executing."""
        return self._running

    @property
    def events_processed(self) -> int:
        """Total number of events processed since the kernel was created."""
        return self._events_processed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulationKernel(now={self._now:g}, pending={self.pending_events}, "
            f"processed={self._events_processed})"
        )


class SimTransport(Transport):
    """The discrete-event kernel behind the :class:`Transport` contract.

    Pure adaptation, no behaviour of its own: deliveries become kernel
    events scheduled ``delay`` time units out and fire in (time, insertion)
    order, exactly as the messaging API historically scheduled them — runs
    are byte-identical to the pre-transport engine.  In-flight surgery maps
    onto the kernel's predicate-based event cancellation/extraction.
    """

    name = "sim"

    #: Spans stay logical-clock-only here: wall time in a trace would make
    #: two reruns of the same seed produce different trace files.
    wall_clock_spans = False

    def __init__(self, kernel: Optional[SimulationKernel] = None) -> None:
        self._kernel = kernel if kernel is not None else SimulationKernel()
        self._deliver: Optional[DeliverCallback] = None
        self._closed = False

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def bind(self, deliver: DeliverCallback) -> None:
        """Install the delivery callback posted envelopes are handed to."""
        self._deliver = deliver

    def register_address(self, address: str) -> None:
        """No per-address state: the kernel routes by envelope destination."""

    def unregister_address(self, address: str) -> None:
        """No per-address state to tear down."""

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._kernel.now

    def advance_to(self, time: float) -> None:
        """Move the simulated clock forward to ``time``."""
        self._kernel.advance_to(time)

    def advance_by(self, delta: float) -> None:
        """Move the simulated clock forward by ``delta`` time units."""
        self._kernel.advance_by(delta)

    # ------------------------------------------------------------------
    # message delivery
    # ------------------------------------------------------------------
    def post(self, envelope: Envelope, delay: float) -> None:
        """Schedule the envelope's delivery event on the kernel."""
        if self._closed:
            raise SimulationError("transport is shut down; post() refused")
        if self._deliver is None:
            raise SimulationError(
                "no delivery callback bound; call bind() before post()"
            )
        kernel = self._kernel
        kernel.push(kernel.now + delay, self._deliver, (envelope,))

    def extract_inbound(self, address: str) -> List[Envelope]:
        """Take the undelivered messages addressed to ``address`` off the kernel."""
        # Bound-method comparison must use ``==``: every attribute access on
        # the messaging service creates a fresh bound-method object, so a
        # rebinding caller would defeat an ``is`` check.
        deliver = self._deliver
        pending = self._kernel.extract_where(
            lambda callback, args: callback == deliver
            and bool(args)
            and args[0].destination == address
        )
        return [args[0] for args in pending]

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------
    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> _runtime.EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        return self._kernel.schedule_at(time, callback, *args)

    def schedule_in(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> _runtime.EventHandle:
        """Schedule ``callback(*args)`` after ``delay`` simulated time units."""
        return self._kernel.schedule_in(delay, callback, *args)

    # ------------------------------------------------------------------
    # drain / shutdown
    # ------------------------------------------------------------------
    def drain(self, max_events: Optional[int] = None) -> int:
        """Process events until the kernel queue is empty."""
        return self._kernel.run_until_idle(max_events=max_events)

    @property
    def is_draining(self) -> bool:
        """Whether the kernel's event loop is currently executing."""
        return self._kernel.is_running

    @property
    def pending_events(self) -> int:
        """Events waiting on the kernel (messages and timers)."""
        return self._kernel.pending_events

    @property
    def events_processed(self) -> int:
        """Total events the kernel has processed."""
        return self._kernel.events_processed

    def shutdown(self) -> None:
        """Drain remaining events and refuse further posts.  Idempotent.

        The kernel holds no external resources, so shutdown only needs to
        honour the contract: outstanding work completes, then the transport
        goes inert.
        """
        if self._closed:
            return
        if not self._kernel.is_running and self._kernel.pending_events:
            self._kernel.run_until_idle()
        self._closed = True

    @property
    def is_closed(self) -> bool:
        """Whether :meth:`shutdown` has completed."""
        return self._closed

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def kernel(self) -> SimulationKernel:
        """The underlying deterministic kernel (sim runtime only)."""
        return self._kernel
