"""The node runtime contract and the clock and timer heap both runtimes share.

:class:`Transport` is the boundary the messaging layer programs against, and
it is also the one base every runtime extends.  The base owns what does not
depend on how messages travel: the logical clock, the single
``(time, sequence, event)`` heap with its cancellable timers, the delivery
callback and the shut-down state.  A runtime adds only how an envelope gets
to its destination:

* ``sim`` (:class:`~repro.net.simulator.SimulationKernel`) — the
  discrete-event kernel: a posted envelope is a bare heap entry beside the
  timers, so messages and timers fire in one (time, insertion) order.  Fully
  deterministic; the test/oracle harness.
* ``asyncio`` (:class:`~repro.net.runtime_asyncio.AsyncioTransport`) — a
  genuinely concurrent runtime where every registered address runs as an
  actor task with a bounded inbox queue and backpressure-aware sends; its
  heap holds timers only.

A transport owns four responsibilities:

1. **delivery** — :meth:`Transport.post` accepts an in-flight
   :class:`~repro.net.messages.Envelope` and eventually hands it to the
   delivery callback installed with :meth:`Transport.bind` (the messaging
   layer's ``_deliver``, which looks up the destination handler and counts
   drops),
2. **in-flight surgery** — :meth:`Transport.extract_inbound` takes the
   undelivered messages addressed to one node off the network (a crash
   loses them, owner failover re-routes some),
3. **timers** — :meth:`Transport.schedule_at` / :meth:`Transport.schedule_in`
   run a callback at a (logical) time and return an :class:`EventHandle`
   that supports cancellation,
4. **the clock and the drain loop** — :attr:`Transport.now`,
   :meth:`Transport.advance_to` and :meth:`Transport.drain`, which runs the
   network to quiescence (every posted message delivered or destroyed, every
   due timer fired).

Times are finite: the clock and the heap refuse NaN and ±inf, so one bad
delay cannot poison every later timestamp.
"""

from __future__ import annotations

import heapq
import itertools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple, Union

from repro.errors import ConfigurationError, SimulationError
from repro.net.messages import Envelope

#: Signature of the delivery callback installed with :meth:`Transport.bind`.
DeliverCallback = Callable[[Envelope], None]

#: Registered runtime names accepted by :func:`make_transport` (and by
#: ``RJoinConfig.runtime``).
TRANSPORT_NAMES: Tuple[str, ...] = ("sim", "asyncio")

#: The runtime used when no explicit choice is made.
DEFAULT_TRANSPORT = "sim"

_INF = math.inf


@dataclass(slots=True)
class _ScheduledEvent:
    """A scheduled callback and whether it was cancelled or has fired."""

    time: float
    callback: Callable[..., None]
    args: Tuple[Any, ...] = ()
    cancelled: bool = False
    fired: bool = False


#: Heap entry: ``(time, sequence, event)``, or ``(time, sequence, envelope)``
#: for a message the ``sim`` kernel delivers.  The sequence number is unique
#: per transport, so entries order as plain tuples by time, then insertion,
#: and the event itself is never compared.
_HeapEntry = Tuple[float, int, Union[_ScheduledEvent, Envelope]]


class EventHandle:
    """Handle for a scheduled timer, allows cancellation.

    Returned by :meth:`Transport.schedule_at` / :meth:`Transport.schedule_in`
    on every runtime.
    """

    __slots__ = ("_event", "_owner")

    def __init__(self, event: _ScheduledEvent, owner: "Transport") -> None:
        self._event = event
        self._owner = owner

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        event = self._event
        if event.fired or event.cancelled:
            return
        event.cancelled = True
        self._owner._live_events -= 1

    @property
    def time(self) -> float:
        """(Logical) time at which the event is scheduled."""
        return self._event.time

    @property
    def cancelled(self) -> bool:
        """Whether the event has been cancelled."""
        return self._event.cancelled


class Transport(ABC):
    """The node ↔ network boundary, and the clock and heap of every runtime.

    The messaging layer (:class:`repro.dht.api.DHTMessagingService`)
    programs exclusively against this contract; the engine drives the drain
    loop and the clock through it.  Implementations must guarantee:

    * **at-most-once delivery** — every posted envelope reaches the bound
      delivery callback at most once; cancelled or extracted envelopes never
      do,
    * **loss-free drain** — :meth:`drain` returns only when every posted
      message has been delivered, cancelled or extracted, and no due timer
      remains,
    * **monotonic clock** — :attr:`now` never moves backwards; a delivered
      envelope's ``delivered_at`` never exceeds the clock observed by its
      handler,
    * **inert after shutdown** — once :meth:`shutdown` has returned, posts,
      timers and drains are refused.
    """

    #: Registry name of the runtime (``sim`` / ``asyncio``).
    name: str = "abstract"

    #: Whether spans opened on this runtime should carry wall-clock service
    #: times.  The observability layer reads this when the engine builds its
    #: tracer: logical-clock-only on deterministic runtimes (wall time would
    #: break byte-identical reruns), wall-clock-enabled on concurrent ones.
    wall_clock_spans: bool = False

    #: Envelopes force-enqueued past a full inbox once the backpressure
    #: timeout ran out.  Only a runtime with bounded inboxes (``asyncio``)
    #: counts any.
    backpressure_escapes: int = 0

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = start_time
        self._heap: List[_HeapEntry] = []
        self._sequence = itertools.count()
        self._live_events = 0  # heap entries that are neither cancelled nor fired
        self._events_processed = 0
        self._deliver: Optional[DeliverCallback] = None
        self._draining = False
        self._closed = False

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def bind(self, deliver: Optional[DeliverCallback]) -> None:
        """Install the delivery callback every posted envelope is handed to
        (None: unbind it)."""
        self._deliver = deliver

    def register_address(self, address: str) -> None:
        """Declare a deliverable address (the asyncio runtime spawns its actor)."""

    def unregister_address(self, address: str) -> None:
        """Forget an address; envelopes still posted to it are delivered to
        the bound callback, which counts them as dropped (no handler)."""

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current logical time."""
        return self._now

    def advance_to(self, time: float) -> None:
        """Move the clock forward to ``time`` without processing anything.

        Used by the engine to model wall-clock gaps between tuple
        publications.  Pending events due before ``time`` are *not* skipped:
        the next :meth:`drain` processes them at their own timestamps; the
        clock simply never moves backwards.
        """
        if not math.isfinite(time):
            raise SimulationError(
                f"cannot move the clock to a non-finite time ({time})"
            )
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
    # the heap
    # ------------------------------------------------------------------
    def push(
        self, time: float, callback: Callable[..., None], args: Tuple[Any, ...]
    ) -> _ScheduledEvent:
        """Queue ``callback(*args)`` at absolute logical ``time``, handle-less.

        The one place timers join the heap (the ``sim`` kernel's ``post``
        adds bare envelope entries beside them).  For events nobody cancels
        one by one; :meth:`schedule_at` wraps the returned event in an
        :class:`EventHandle` for those somebody may.
        """
        if self._closed or not self._now <= time < _INF:  # also true for NaN
            raise self._refusal(time)
        event = _ScheduledEvent(time, callback, args)
        heapq.heappush(self._heap, (time, next(self._sequence), event))
        self._live_events += 1
        return event

    def _refusal(self, time: float) -> SimulationError:
        """Why nothing may be queued at ``time`` (shut down, past or not finite)."""
        if self._closed:
            return SimulationError("transport is shut down; cannot schedule")
        if math.isfinite(time):
            return SimulationError(
                f"cannot schedule an event in the past ({time} < {self._now})"
            )
        return SimulationError(
            f"cannot schedule an event at a non-finite time ({time})"
        )

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute logical ``time``."""
        return EventHandle(self.push(time, callback, args), self)

    def schedule_in(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` after ``delay`` logical time units."""
        if delay < 0:
            raise SimulationError("delay must be non-negative")
        return self.schedule_at(self._now + delay, callback, *args)

    def step(self) -> bool:
        """Fire the next pending heap entry; return False when none remain.

        A bare envelope entry (what the ``sim`` kernel posts) goes straight
        to the delivery callback.
        """
        heap = self._heap
        while heap:
            time, _, item = heapq.heappop(heap)
            if isinstance(item, Envelope):
                if time > self._now:
                    self._now = time
                self._events_processed += 1
                self._live_events -= 1
                self._deliver(item)  # type: ignore[misc]
                return True
            if item.cancelled:
                continue
            if time > self._now:
                self._now = time
            self._events_processed += 1
            self._live_events -= 1
            item.fired = True
            item.callback(*item.args)
            return True
        return False

    # ------------------------------------------------------------------
    # message delivery (per runtime)
    # ------------------------------------------------------------------
    @abstractmethod
    def post(self, envelope: Envelope, delay: float) -> None:
        """Accept ``envelope`` for delivery ``delay`` logical time units from
        now (to ``envelope.destination``)."""

    @abstractmethod
    def extract_inbound(self, address: str) -> List[Envelope]:
        """Take every undelivered envelope addressed to ``address`` off the
        network and return them in posting order (an abrupt crash loses
        them, owner failover re-routes them)."""

    # ------------------------------------------------------------------
    # drain / shutdown
    # ------------------------------------------------------------------
    @abstractmethod
    def drain(self, max_events: Optional[int] = None) -> int:
        """Run until quiescent; returns the number of events processed.

        ``max_events`` guards against runaway cascades: exceeding it raises
        :class:`~repro.errors.SimulationError`.  Not re-entrant, and refused
        after :meth:`shutdown`.
        """

    def _start_drain(self) -> None:
        """Refuse a re-entrant or post-shutdown drain, else mark one running."""
        if self._draining:
            raise SimulationError("drain() is not re-entrant")
        if self._closed:
            raise SimulationError("transport is shut down; cannot drain")
        self._draining = True

    @property
    def is_draining(self) -> bool:
        """Whether a drain loop is currently executing."""
        return self._draining

    @property
    def pending_events(self) -> int:
        """Undelivered messages plus uncancelled pending timers."""
        return self._live_events

    @property
    def events_processed(self) -> int:
        """Total deliveries and timer firings since construction."""
        return self._events_processed

    def shutdown(self) -> None:
        """Drain outstanding work, then refuse every later post, timer and
        drain.  Idempotent."""
        if self._closed:
            return
        if self.pending_events and not self._draining:
            self.drain()
        self._closed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(now={self._now:g}, "
            f"pending={self.pending_events}, processed={self._events_processed})"
        )


def make_transport(name: str = DEFAULT_TRANSPORT) -> Transport:
    """Build a runtime transport by registry name (``sim`` / ``asyncio``).

    Implementations are imported lazily so that selecting the deterministic
    kernel never pays for the concurrent runtime's machinery (and vice
    versa).
    """
    if name == "sim":
        from repro.net.simulator import SimulationKernel

        return SimulationKernel()
    if name == "asyncio":
        from repro.net.runtime_asyncio import AsyncioTransport

        return AsyncioTransport()
    known = ", ".join(TRANSPORT_NAMES)
    raise ConfigurationError(f"unknown runtime {name!r}; known runtimes: {known}")
